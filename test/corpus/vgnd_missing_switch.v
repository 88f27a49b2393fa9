// expect 7: @vgnd takes 2 arguments, got 1
module vgnd_missing_switch (a, z);
  input a;
  output z;
  INV_MTV g (.A(a), .Z(z));
  // the switch the cell hangs from is missing
  // @vgnd g
endmodule
