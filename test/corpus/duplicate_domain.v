// expect 9: duplicate domain d
module duplicate_domain (a, mte, z);
  input a;
  input mte;
  output z;
  BUF_LVT g1 (.A(a), .Z(z));
  // @domain d mte
  // @member g1 d
  // @domain d -
endmodule
