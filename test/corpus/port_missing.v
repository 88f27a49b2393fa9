// expect 5: output y is missing from the port list
module port_missing (a, z);
  input a;
  output z;
  output y;
  BUF_LVT g1 (.A(a), .Z(z));
  BUF_LVT g2 (.A(a), .Z(y));
endmodule
