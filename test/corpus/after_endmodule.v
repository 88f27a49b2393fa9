// expect 9: text after endmodule
module after_endmodule (a, z);
  input a;
  output z;
  INV_LVT g (.A(a), .Z(z));
endmodule
// an ordinary comment may follow endmodule

module extra (b);
  input b;
  FOO_LVT h (.A(b));
endmodule
