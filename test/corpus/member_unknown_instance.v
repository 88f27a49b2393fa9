// expect 8: @member refers to unknown instance g9
module member_unknown_instance (a, mte, z);
  input a;
  input mte;
  output z;
  BUF_LVT g1 (.A(a), .Z(z));
  // @domain d mte
  // @member g9 d
endmodule
