// expect 9: unknown pragma @vgdn
module unknown_pragma (a, mte, z);
  input a;
  input mte;
  output z;
  INV_MTV g (.A(a), .Z(z));
  SW_W2p5 sw0 (.MTE(mte));
  // a misspelt @vgnd
  // @vgdn g sw0
endmodule
