// expect 2: port b is not declared as input or output
module port_undeclared (a, b, q);
  input a;
  output z;
  BUF_LVT g (.A(a), .Z(z));
endmodule
