// expect 5: @clock: unknown net clk
module clock_unknown_net (a, z);
  input a;
  output z;
  // @clock clk
  BUF_LVT g (.A(a), .Z(z));
endmodule
