// expect 4: duplicate net a
module duplicate_input (a, z);
  input a;
  input a;
  output z;
  BUF_LVT g1 (.A(a), .Z(z));
endmodule
