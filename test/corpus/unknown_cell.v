// expect 5: unknown cell FOO_LVT
module unknown_cell (a, z);
  input a;
  output z;
  FOO_LVT g1 (.A(a), .Z(z));
  BUF_LVT g2 (.A(a), .Z(z2));
endmodule
