// expect 2: port a is listed twice
module port_listed_twice (a, z, a);
  input a;
  output z;
  BUF_LVT g (.A(a), .Z(z));
endmodule
