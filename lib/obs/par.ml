let map ~jobs f xs =
  if jobs <= 1 || List.length xs < 2 then List.map f xs
  else begin
    let packed =
      Smt_util.Pool.map ~jobs
        (fun x -> Trace.collect (fun () -> Metrics.collect (fun () -> f x)))
        xs
    in
    (* Merge in input order: additive instruments are order-independent,
       gauges become last-write-wins exactly as in a sequential run. *)
    List.mapi
      (fun idx ((y, mcol), tev) ->
        Metrics.merge mcol;
        Trace.absorb ~tid:(2 + idx) tev;
        y)
      packed
  end
