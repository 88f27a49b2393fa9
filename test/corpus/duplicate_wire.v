// expect 6: duplicate net w
module duplicate_wire (a, z);
  input a;
  output z;
  wire w;
  wire w;
  BUF_LVT g1 (.A(a), .Z(w));
  BUF_LVT g2 (.A(w), .Z(z));
endmodule
