(* The NDroid benchmark: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a machine fingerprint line, then, as the last line, one JSON
   object: [correct], [attempted], [failed] and [metrics] — every
   end-to-end metric with --trace 0, every per-layer metric with
   --trace 1.  Spans of a traced run go to .perfbench/. *)

module Json = Ndroid_report.Json

let workloads =
  [ ("market_sweep", W_market.run); ("jni_apps", W_jni.run);
    ("cfbench_ndroid", W_cfbench.run) ]

let metric value unit = Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ]

let select ~trace values =
  let catalog = if trace then Catalog.layers else Catalog.end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalog) then
        failwith (Printf.sprintf "metric %s is not in the catalog" name))
    values;
  List.map
    (fun (name, unit) ->
      let v =
        match List.assoc_opt name values with
        | Some v -> v
        | None when trace -> 0.0
        | None -> failwith (Printf.sprintf "end-to-end metric %s not measured" name)
      in
      if not (Float.is_finite v) then
        failwith (Printf.sprintf "metric %s is not a finite number" name);
      (name, metric v unit))
    catalog

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length the fixed work is sized to");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some run ->
    let trace = !trace = 1 in
    let o = run ~seed:!seed ~seconds:(max 1 !seconds) ~trace in
    if trace then Bench.write_spans ~workload:!workload ~seed:!seed;
    print_endline (Json.to_string (Json.Obj [ ("fingerprint", Bench.fingerprint ()) ]));
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("correct", Json.Bool o.Bench.correct);
              ("attempted", Json.Int o.Bench.attempted);
              ("failed", Json.Int o.Bench.failed);
              ("metrics", Json.Obj (select ~trace o.Bench.values)) ]))
