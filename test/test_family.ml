(* Compile families: the harness lowers each source once and runs each
   pipeline prefix once per family, copying the module at every branch
   point.  The contracts:

   1. equivalence — every setup compiled inside a family is
      byte-identical (printed IR, static stats, site registry) to an
      isolated compile of that setup, and the stage composition equals
      Pipeline.run at every (level, extension point);
   2. isolation — Irmod.copy shares nothing a pass can mutate;
   3. failure fan-out — a stage that raises fails every dependent job
      with the reason an isolated run gives, and an injected crash
      fails only its own job;
   4. determinism — a soak-round job list with duplicate compile keys
      gives identical results, cache accounting and profile bytes at
      any -j. *)

open Mi_bench_kit
module Pipeline = Mi_passes.Pipeline
module Obs = Mi_obs.Obs
module Oracle = Mi_fuzz.Oracle
module Gen = Mi_fuzz.Gen
module Printer = Mi_mir.Printer

(* what a compile produced, as bytes: printed modules, static stats and
   the registered check sites; with [memo], as a family member that
   keeps its stages for the next unless [last] *)
let compiled ?memo ?(last = memo = None) setup (sources : Bench.source list) =
  let obs = Obs.create () in
  let modules, stats = Harness.compile ?memo ~last ~obs setup sources in
  ( String.concat "\n"
      (List.map
         (fun (m, instrumented) ->
           Printf.sprintf "instrumented=%b\n%s" instrumented
             (Printer.module_to_string m))
         modules),
    Marshal.to_string stats [ Marshal.No_sharing ],
    Marshal.to_string (Mi_obs.Site.infos obs.Obs.sites) [ Marshal.No_sharing ]
  )

let oracle_setups =
  Oracle.reference :: List.map snd Oracle.variants

(* every oracle setup, in job order through one memo, against isolated
   compiles *)
let check_family name (sources : Bench.source list) =
  let memo = Harness.new_memo () in
  let n = List.length oracle_setups in
  List.iteri
    (fun k setup ->
      let fam_ir, fam_stats, fam_sites =
        compiled ~memo ~last:(k = n - 1) setup sources
      in
      let ir, stats, sites = compiled setup sources in
      let what = name ^ " " ^ Harness.setup_key setup in
      Alcotest.(check string) (what ^ ": IR") ir fam_ir;
      Alcotest.(check bool) (what ^ ": static stats") true (stats = fam_stats);
      Alcotest.(check bool) (what ^ ": sites") true (sites = fam_sites))
    oracle_setups

let test_family_generated () =
  for seed = 1 to 40 do
    let p = Gen.generate ~seed () in
    check_family (Printf.sprintf "gen %d" seed) p.Gen.p_sources
  done

let test_family_suite () =
  List.iter (fun (b : Bench.t) -> check_family b.name b.sources) Suite.all

(* stage composition = Pipeline.run, at every level and extension point,
   with and without an instrumenter, all through one memo *)
let test_stages_equal_pipeline_run () =
  let b = Option.get (Suite.find "470lbm") in
  let src = List.hd b.sources in
  let memo = Harness.new_memo () in
  List.iter
    (fun level ->
      List.iter
        (fun ep ->
          List.iter
            (fun config ->
              let setup = { Harness.baseline with level; ep; config } in
              let fam_ir, _, _ = compiled ~memo setup [ src ] in
              let m = Mi_minic.Lower.compile ~name:src.src_name src.code in
              let instrument =
                Option.map
                  (fun cfg m -> ignore (Mi_core.Instrument.run cfg m))
                  config
              in
              Pipeline.run ~level ?instrument ~ep m;
              Mi_analysis.Domcheck.assert_valid m;
              Alcotest.(check string)
                (Harness.setup_key setup)
                (Printf.sprintf "instrumented=%b\n%s" src.instrument
                   (Printer.module_to_string m))
                fam_ir)
            [ None; Some Mi_core.Config.softbound ])
        Pipeline.all_extension_points)
    [ Pipeline.O0; Pipeline.O1; Pipeline.O3 ]

let test_copy_isolation () =
  let b = Option.get (Suite.find "470lbm") in
  let src = List.hd b.sources in
  let m = Mi_minic.Lower.compile ~name:src.src_name src.code in
  let before = Printer.module_to_string m in
  let c = Mi_mir.Irmod.copy m in
  Pipeline.run ~level:Pipeline.O3
    ~instrument:(fun m -> ignore (Mi_core.Instrument.run Mi_core.Config.lowfat m))
    c;
  Mi_mir.Irmod.add_global c
    (Mi_mir.Irmod.mk_global ~name:"extra" ~size:8 [ Mi_mir.Irmod.GZero 8 ]);
  Alcotest.(check bool) "the copy changed" true
    (Printer.module_to_string c <> before);
  Alcotest.(check string) "the source prints identically" before
    (Printer.module_to_string m)

(* ------------------------------------------------------------------ *)
(* failure fan-out                                                     *)
(* ------------------------------------------------------------------ *)

let jobs_of (b : Bench.t) = List.map (fun s -> (s, b)) oracle_setups

let test_lowering_failure_fans_out () =
  let b =
    Oracle.bench_of_sources ~name:"bad"
      [ Bench.src "main" "int main() { return undefined_name; }\n" ]
  in
  let h = Harness.create ~jobs:2 () in
  let results = Harness.run_jobs h (jobs_of b) in
  List.iter2
    (fun (setup, _) res ->
      let alone = Harness.run (Harness.create ~jobs:1 ()) setup b in
      match (res, alone) with
      | Error e, Error e' ->
          Alcotest.(check string) (Harness.setup_key setup) e'.Harness.reason
            e.Harness.reason
      | _ -> Alcotest.fail "a lowering failure must fail every job")
    (jobs_of b) results

let test_injected_crash_spares_siblings () =
  let b = Oracle.safe_bench (Gen.generate ~seed:3 ()) in
  let faults =
    match Mi_faultkit.Fault.parse "crash=ModuleOptimizerEarly" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let h = Harness.create ~jobs:2 ~faults () in
  let results = Harness.run_jobs h (jobs_of b) in
  let reference_output =
    match List.hd results with
    | Ok r -> r.Harness.output
    | Error e -> Alcotest.fail e.Harness.reason
  in
  List.iter2
    (fun (setup, _) res ->
      let key = Harness.setup_key setup in
      match (setup.Harness.ep, res) with
      | Pipeline.ModuleOptimizerEarly, Error e ->
          Alcotest.(check bool) (key ^ ": injected") true
            (String.starts_with ~prefix:"injected crash" e.Harness.reason)
      | Pipeline.ModuleOptimizerEarly, Ok _ ->
          Alcotest.fail (key ^ ": the crashed job succeeded")
      | _, Ok r ->
          Alcotest.(check string) (key ^ ": output") reference_output
            r.Harness.output
      | _, Error e -> Alcotest.fail (key ^ ": " ^ e.Harness.reason))
    (jobs_of b) results;
  Alcotest.(check int) "one failure" 1 (List.length (Harness.failures h))

(* ------------------------------------------------------------------ *)
(* -j determinism with duplicate compile keys                          *)
(* ------------------------------------------------------------------ *)

(* a soak round: eight fresh candidates through the safe matrix, whose
   /generic twins share their fast setups' compile keys *)
let round = List.init 8 (fun i -> Gen.generate ~seed:(i + 1) ())
let round_jobs () = List.concat_map Oracle.safe_jobs round

let run_round jobs =
  let h = Harness.create ~jobs ~obs:(Obs.create ~coverage:true ()) () in
  let results = Harness.run_jobs h (round_jobs ()) in
  let profile =
    Mi_obs.Json.to_string
      (Mi_obs.Profile.to_json (Mi_obs.Profile.of_obs (Harness.obs h)))
  in
  (results, Harness.cache_stats h, profile,
   Mi_obs.Profile.of_obs (Harness.obs h))

let test_round_deterministic () =
  let r1, c1, p1, prof = run_round 1 in
  Alcotest.(check int) "14 misses per candidate" (8 * 14) c1.Harness.misses;
  Alcotest.(check int) "3 /generic hits per candidate" (8 * 3) c1.Harness.hits;
  (* each candidate is lowered once, by its family's reference job *)
  let lowerings =
    List.fold_left
      (fun n (path, k) ->
        let leaf = List.hd (List.rev (String.split_on_char ';' path)) in
        if String.starts_with ~prefix:"lower:" leaf then n + k else n)
      0 prof.Mi_obs.Profile.pr_spans
  in
  Alcotest.(check int) "one lowering per unit"
    (List.fold_left (fun n p -> n + List.length p.Gen.p_sources) 0 round)
    lowerings;
  List.iter
    (fun j ->
      let r, c, p, _ = run_round j in
      let tag what = Printf.sprintf "-j %d: %s" j what in
      Alcotest.(check bool) (tag "results") true (r = r1);
      Alcotest.(check int) (tag "hits") c1.Harness.hits c.Harness.hits;
      Alcotest.(check int) (tag "misses") c1.Harness.misses c.Harness.misses;
      Alcotest.(check string) (tag "profile bytes") p1 p)
    [ 2; 4 ]

let () =
  Alcotest.run "family"
    [
      ( "equivalence",
        [
          Alcotest.test_case "stages compose to Pipeline.run" `Quick
            test_stages_equal_pipeline_run;
          Alcotest.test_case "generator seeds 1..40" `Slow
            test_family_generated;
          Alcotest.test_case "suite programs" `Slow test_family_suite;
          Alcotest.test_case "Irmod.copy isolation" `Quick test_copy_isolation;
        ] );
      ( "failures",
        [
          Alcotest.test_case "lowering failure fans out" `Quick
            test_lowering_failure_fans_out;
          Alcotest.test_case "injected crash spares siblings" `Quick
            test_injected_crash_spares_siblings;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "soak round at -j 1/2/4" `Slow
            test_round_deterministic;
        ] );
    ]
