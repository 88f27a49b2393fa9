let map ~jobs f xs =
  if jobs <= 1 || List.length xs < 2 then List.map f xs
  else begin
    let packed =
      Smt_util.Pool.map ~jobs
        (fun x -> Trace.collect (fun () -> Metrics.collect (fun () -> f x)))
        xs
    in
    (* Merge in input order, which keeps the trace rows in input order;
       the additive instruments would not mind any order. *)
    List.mapi
      (fun idx ((y, mcol), tev) ->
        Metrics.merge mcol;
        Trace.absorb ~tid:(2 + idx) tev;
        y)
      packed
  end
