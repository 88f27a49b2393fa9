// expect 6: @clock takes 1 argument, got 2
module clock_extra_word (a, b, z);
  input a;
  input b;
  output z;
  // @clock a b
  NAND2_LVT g (.A(a), .B(b), .Z(z));
endmodule
