(* The benchmark's own arithmetic and output check. *)

open Perfbench_lib
module Harness = Mi_bench_kit.Harness
module Proto = Mi_server.Proto
module Json = Mi_obs.Json

let feq = Alcotest.float 1e-9

(* --- percentiles ---------------------------------------------------- *)

let beyond n p = n - int_of_float (Float.ceil (float_of_int (p * n) /. 100.))

let test_percentile_rule () =
  Alcotest.(check (option int)) "1000 samples" (Some 99) (Stats.tail_percentile 1000);
  Alcotest.(check (option int)) "120 samples" (Some 91) (Stats.tail_percentile 120);
  Alcotest.(check (option int)) "20 samples" (Some 50) (Stats.tail_percentile 20);
  Alcotest.(check (option int)) "19 samples" None (Stats.tail_percentile 19);
  for n = 20 to 3000 do
    match Stats.tail_percentile n with
    | None -> Alcotest.failf "no percentile for %d samples" n
    | Some p ->
        if beyond n p < 10 then
          Alcotest.failf "p%d of %d leaves %d beyond" p n (beyond n p);
        if p < 99 && beyond n (p + 1) >= 10 then
          Alcotest.failf "p%d of %d is not the highest" p n
  done

let test_percentile_values () =
  let a = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  let v, p = Stats.tail a in
  Alcotest.(check int) "p99" 99 p;
  Alcotest.check feq "ten samples beyond" 990. v;
  Alcotest.check feq "median even" 500.5 (Stats.median a);
  Alcotest.check feq "median odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  let v, p = Stats.tail [| 4.; 9.; 1. |] in
  Alcotest.(check int) "too few: the maximum" 100 p;
  Alcotest.check feq "maximum" 9. v

let test_geomean () =
  Alcotest.check feq "two" 4. (Stats.geomean [ 2.; 8. ]);
  Alcotest.check feq "one" 1.5 (Stats.geomean [ 1.5 ]);
  Alcotest.check feq "three" 2. (Stats.geomean [ 1.; 2.; 4. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: no samples")
    (fun () -> ignore (Stats.geomean []));
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: non-positive sample")
    (fun () -> ignore (Stats.geomean [ 1.; 0. ]))

(* --- span self time ------------------------------------------------- *)

let rows =
  [
    ("Lower.compile", 1, 5.);
    ("Pipeline.run", 1, 10.);
    ("Pipeline.run;Instrument.run", 1, 2.);
    ("Pipeline.run;late-scalar", 1, 6.);
    ("Pipeline.run;late-scalar;gvn", 2, 4.);
    ("Pipeline.run;late-scalar;gvn;inner", 1, 1.);
    ("Interp.run", 1, 20.);
  ]

let test_self_times () =
  let self = Stats.self_times rows in
  let get p = List.assoc p self in
  Alcotest.check feq "leaf" 5. (get "Lower.compile");
  Alcotest.check feq "minus direct children" 2. (get "Pipeline.run");
  Alcotest.check feq "phase" 2. (get "Pipeline.run;late-scalar");
  Alcotest.check feq "pass" 3. (get "Pipeline.run;late-scalar;gvn");
  Alcotest.check feq "roots" 35. (Stats.root_total rows);
  Alcotest.check feq "self times sum to the roots" 35.
    (List.fold_left (fun a (_, s) -> a +. s) 0. self)

let test_layers () =
  let layer = Stats.by_layer ~classify:Mirror.layer_of_path rows in
  Alcotest.check feq "minic" 5. (layer "minic");
  Alcotest.check feq "pipeline: own and phase self time" 4. (layer "passes.pipeline");
  Alcotest.check feq "a pass and what it encloses" 4. (layer "passes.gvn");
  Alcotest.check feq "instrument" 2. (layer "core");
  Alcotest.check feq "vm" 20. (layer "vm.run");
  Alcotest.(check string) "unknown" "other" (Mirror.layer_of_path [ "x"; "y" ])

let read path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* every per-layer metric is in the layer map exactly once *)
let test_layer_map () =
  let doc = Json.of_string (read "../layers.json") in
  let names =
    match Json.member "layers" doc with
    | Some (Json.List ls) ->
        List.concat_map
          (fun l ->
            match Json.member "metrics" l with
            | Some (Json.List ms) ->
                List.map (function Json.Str s -> s | _ -> Alcotest.fail "metric name") ms
            | _ -> Alcotest.fail "layer without metrics")
          ls
    | _ -> Alcotest.fail "no layers"
  in
  Alcotest.(check (list string)) "layer map covers the per-layer metrics"
    (List.sort compare (Workload.metric_names ~trace:true))
    (List.sort compare names)

(* --- the output check ----------------------------------------------- *)

let run ?(outcome = Mi_vm.Interp.Exited 0) output : Harness.run =
  {
    Harness.outcome;
    cycles = 1234;
    steps = 99;
    output;
    counters = [||];
    static_stats = [];
    program_instrs = 10;
    profile = [];
    coverage = [];
  }

let replace_once s ~sub ~by =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not found" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_suite_check () =
  let frozen = read "../expected_suite.json" in
  let tbl = Check.expected_of_string frozen in
  Alcotest.(check int) "20 programs" 20 (Hashtbl.length tbl);
  let good = (Hashtbl.find tbl "164gzip").Check.ex_output in
  let check tbl r = Check.suite_run tbl ~name:"164gzip" ~setup:"sb" r in
  Alcotest.(check bool) "frozen output passes" true (check tbl (Ok (run good)) = None);
  (* one tampered entry makes the same run fail *)
  let tampered =
    Check.expected_of_string
      (replace_once frozen ~sub:(Json.to_string (Json.Str good))
         ~by:(Json.to_string (Json.Str ("x" ^ good))))
  in
  Alcotest.(check bool) "tampered entry fails" true
    (check tampered (Ok (run good)) <> None);
  Alcotest.(check bool) "wrong exit fails" true
    (check tbl (Ok (run ~outcome:(Mi_vm.Interp.Exited 1) good)) <> None);
  Alcotest.(check bool) "trap fails" true
    (check tbl (Ok (run ~outcome:(Mi_vm.Interp.Trapped "oob") good)) <> None);
  Alcotest.(check bool) "compile error fails" true
    (check tbl (Error { Harness.bench = "164gzip"; reason = "bad" }) <> None);
  Alcotest.(check bool) "unknown program fails" true
    (Check.suite_run tbl ~name:"999none" ~setup:"sb" (Ok (run good)) <> None)

let test_serve_check () =
  let r = run "out\n" in
  let ok result = Proto.R_ok { id = 1; result } in
  let job = List.hd (Serve_wl.jobs_of_seed 1) in
  let verdict ~batch reply =
    match Check.serve_reply job ~batch reply with
    | Check.Agree -> "agree"
    | Check.Failed _ -> "failed"
    | Check.Differ _ -> "differ"
  in
  let bad = Error { Harness.bench = "b"; reason = "link error" } in
  let failed reason = Proto.R_failed { id = 1; kind = "error"; reason; retries = 0 } in
  let case name want ~batch reply =
    Alcotest.(check string) name want (verdict ~batch reply)
  in
  case "same result" "agree" ~batch:(Ok r) (ok (Proto.run_to_json r));
  case "mismatching reply" "differ" ~batch:(Ok r)
    (ok (Proto.run_to_json { r with cycles = 1235 }));
  case "failed, batch ok" "differ" ~batch:(Ok r) (failed "x");
  case "failed alike" "failed" ~batch:bad (failed "link error");
  case "failed otherwise" "differ" ~batch:bad (failed "other");
  case "ok, batch failed" "differ" ~batch:bad (ok (Proto.run_to_json r));
  case "error reply" "differ" ~batch:(Ok r) (Proto.R_error { id = 1; reason = "x" });
  (* the breaker disabled the approach: the daemon answers as designed *)
  case "degraded" "failed" ~batch:(Ok r)
    (Proto.R_degraded { id = 1; approach = "softbound"; reason = "breaker open" })

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "percentile values" `Quick test_percentile_values;
          Alcotest.test_case "geomean" `Quick test_geomean;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_times;
          Alcotest.test_case "layer attribution" `Quick test_layers;
          Alcotest.test_case "layer map" `Quick test_layer_map;
        ] );
      ( "check",
        [
          Alcotest.test_case "suite expected outputs" `Quick test_suite_check;
          Alcotest.test_case "serve replies" `Quick test_serve_check;
        ] );
    ]
