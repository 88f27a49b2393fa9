// expect 9: g2 is not a sleep switch
module vgnd_non_switch (a, b, y, z);
  input a;
  input b;
  output y;
  output z;
  AND2_MTV g1 (.A(a), .B(b), .Z(y));
  BUF_LVT g2 (.A(a), .Z(z));
  // @vgnd g1 g2
endmodule
