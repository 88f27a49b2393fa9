// expect 8: net z already driven by g1.Z
module double_driver (a, b, z);
  input a;
  input b;
  output z;
  NAND2_LVT g1 (.A(a), .B(b), .Z(z));
  // a second gate drives the same net
  NAND2_LVT g2 (.A(b), .B(a), .Z(z));
endmodule
