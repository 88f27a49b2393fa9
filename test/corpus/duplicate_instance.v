// expect 8: duplicate instance g1
module duplicate_instance (a, b, y, z);
  input a;
  input b;
  output y;
  output z;
  NAND2_LVT g1 (.A(a), .B(b), .Z(y));
  NAND2_LVT g1 (.A(b), .B(a), .Z(z));
endmodule
