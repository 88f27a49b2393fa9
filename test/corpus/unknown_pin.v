// expect 6: cell NAND2_LVT has no pin Q
module unknown_pin (a, b, z);
  input a;
  input b;
  output z;
  NAND2_LVT g1 (.A(a), .B(b), .Q(z));
endmodule
