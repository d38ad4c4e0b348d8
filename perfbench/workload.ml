(** What every workload shares: the measured setups, the metric names,
    the program-sample matrix behind [cells] and [cycles_overhead.*], and
    the result record. *)

module Harness = Mi_bench_kit.Harness
module Bench = Mi_bench_kit.Bench
module Experiments = Mi_bench_kit.Experiments
module Config = Mi_core.Config
module Json = Mi_obs.Json
module Mclock = Mi_support.Mclock

(** The six setups of the paper's run-time figures: the baseline, each
    approach's measured configuration, and full check elimination. *)
let setups : (string * Harness.setup) list =
  [
    ("base", Harness.baseline);
    ("sb", Experiments.opt_setup "softbound");
    ("lf", Experiments.opt_setup "lowfat");
    ("tp", Experiments.opt_setup "temporal");
    ("sb-checkopt", Experiments.checkopt_setup "softbound");
    ("lf-checkopt", Experiments.checkopt_setup "lowfat");
  ]

let instrumented = List.filter (fun (n, _) -> n <> "base") setups

(* metadata-only runtime of each approach: invariants kept, no checks
   (the split of Fig 10/11: metadata = meta - base, check = full - meta) *)
let metadata_setups : (string * Harness.setup) list =
  List.map
    (fun (name, approach) ->
      ( "meta-" ^ name,
        Harness.with_config
          (Config.metadata_only (Config.of_approach approach))
          Harness.baseline ))
    [ ("sb", "softbound"); ("lf", "lowfat"); ("tp", "temporal") ]

let metadata_of name = "meta-" ^ String.sub name 0 2

(** The coverage reference of the fuzz oracle: [-O0], uninstrumented. *)
let reference = ("ref", Mi_fuzz.Oracle.reference)

let now = Mclock.now

(* a ratio that reads 0 where its base is 0 (a layer not reached) *)
let ratio a b = if b > 0. then a /. b else 0.

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

(** A failed operation.  [wrong] when an output breaks an invariant the
    check rests on; a job that fails in the same way under the oracle
    (a served job whose batch recomputation fails alike) is a failed
    operation with a correct reply. *)
type failure = { reason : string; wrong : bool }

let wrong reason = { reason; wrong = true }

type outcome = {
  attempted : int;
  failures : failure list;  (** one per failed operation *)
  metrics : (string * float) list;
  details : (string * Json.t) list;  (** record-only, not metrics *)
}

let metric_names ~trace =
  if trace then
    [
      "minic.lower_s"; "minic.src_bytes_per_s"; "passes.pipeline_s";
      "passes.simplifycfg_s"; "passes.mem2reg_s"; "passes.instcombine_s";
      "passes.inline_s"; "passes.gvn_s"; "passes.licm_s"; "passes.dce_s";
      "passes.instrs_out"; "core.instrument_s"; "core.checks_found";
      "core.checks_placed"; "core.removed.dominance"; "core.removed.static";
      "core.removed.hoisted"; "core.elim_ratio"; "vm.load_s"; "vm.run_s";
      "vm.steps"; "vm.steps_per_s"; "vm.mem_pages"; "rt.install_s";
      "rt.sb.checks"; "rt.sb.trie_load"; "rt.sb.trie_store"; "rt.lf.checks";
      "rt.lf.malloc"; "rt.tp.checks"; "rt.tp.key_alloc"; "cycles.base";
      "cycles.metadata.sb"; "cycles.check.sb"; "cycles.metadata.lf";
      "cycles.check.lf"; "cycles.metadata.tp"; "cycles.check.tp";
      "cycles.metadata.sb-checkopt"; "cycles.check.sb-checkopt";
      "cycles.metadata.lf-checkopt"; "cycles.check.lf-checkopt";
      "harness.compile_s"; "harness.execute_s"; "harness.self_s";
      "icache.hits"; "icache.misses"; "icache.hit_ratio"; "fuzz.matrix_s";
      "fuzz.rest_s"; "fuzz.admit_ratio"; "fuzz.rounds";
      "server.latency_p50_ms"; "server.latency_p99_ms"; "serve.wire_ms";
      "proto.encode_s"; "proto.decode_s"; "server.rejected"; "trace.overhead";
      "residue_share";
    ]
  else
    [
      "ops_per_s"; "ok_ratio"; "peak_rss_mb"; "p50_ms"; "tail_ms"; "cells";
      "cycles_overhead.sb"; "cycles_overhead.lf"; "cycles_overhead.tp";
      "cycles_overhead.sb-checkopt"; "cycles_overhead.lf-checkopt";
    ]

(** Every metric of the run's kind, in a fixed order.  An end-to-end
    metric the workload did not measure is a bug and raises; a layer the
    workload does not reach reads 0. *)
let complete ~trace (ms : (string * float) list) =
  List.map
    (fun name ->
      match List.assoc_opt name ms with
      | Some v -> (name, v)
      | None when trace -> (name, 0.)
      | None -> failwith ("workload did not measure " ^ name))
    (metric_names ~trace)

(** The end-to-end metrics every workload derives the same way; [p50_ms]
    defaults to the median of [latencies_ms]. *)
let common ~ops_per_s ?p50_ms ~latencies_ms ~rss_mb () =
  let tail, pct = Stats.tail latencies_ms in
  let p50 = match p50_ms with Some p -> p | None -> Stats.median latencies_ms in
  ( [
      ("ops_per_s", ops_per_s);
      ("peak_rss_mb", rss_mb);
      ("p50_ms", p50);
      ("tail_ms", tail);
    ],
    [
      ("latency_samples", Json.Int (Array.length latencies_ms));
      ("tail_percentile", Json.Int pct);
    ] )

(* ------------------------------------------------------------------ *)
(* Program-sample matrix                                               *)
(* ------------------------------------------------------------------ *)

type cell = { setup : string; bench : string; res : (Harness.run, Harness.error) result }

(** Run [benches] under the named [setups] on one fresh session, after
    the timed phase and on up to two workers; with [coverage], the runs
    record VM coverage so [cells] can count the reference runs'. *)
let matrix ?(coverage = false) (named : (string * Harness.setup) list)
    (benches : Bench.t list) : cell list =
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  let h = Harness.create ~jobs ~obs:(Mi_obs.Obs.create ~coverage ()) () in
  let js =
    List.concat_map (fun b -> List.map (fun (n, s) -> (n, s, b)) named) benches
  in
  let rs = Harness.run_jobs h (List.map (fun (_, s, b) -> (s, b)) js) in
  List.map2
    (fun (n, _, (b : Bench.t)) res -> { setup = n; bench = b.name; res })
    js rs

let cycles cells ~setup ~bench =
  List.find_map
    (fun c ->
      if c.setup = setup && c.bench = bench then
        match c.res with
        | Ok { Harness.outcome = Mi_vm.Interp.Exited _; cycles; _ } -> Some cycles
        | _ -> None
      else None)
    cells

(** Failures of a program-sample matrix: every run must exit. *)
let matrix_failures cells =
  List.filter_map
    (fun c ->
      match c.res with
      | Ok r -> (
          match r.Harness.outcome with
          | Mi_vm.Interp.Exited _ -> None
          | o -> Some (c.bench ^ " " ^ c.setup ^ ": " ^ Check.outcome_string o))
      | Error e -> Some (c.bench ^ " " ^ c.setup ^ ": " ^ e.Harness.reason))
    cells

let benches_of cells =
  List.sort_uniq compare (List.map (fun c -> c.bench) cells)

(** [cycles_overhead.<setup>]: geomean over the programs of modeled
    cycles under the setup ÷ baseline cycles. *)
let overheads cells =
  let benches = benches_of cells in
  List.map
    (fun (name, _) ->
      let ratios =
        List.filter_map
          (fun bench ->
            match
              (cycles cells ~setup:name ~bench, cycles cells ~setup:"base" ~bench)
            with
            | Some c, Some b when b > 0 -> Some (float_of_int c /. float_of_int b)
            | _ -> None)
          benches
      in
      ("cycles_overhead." ^ name, if ratios = [] then 0. else Stats.geomean ratios))
    instrumented

(** Coverage cells of the reference runs (the fuzz oracle's measure). *)
let cells_count cells =
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun c ->
      match c.res with
      | Ok r when c.setup = fst reference ->
          List.iter
            (fun k -> Hashtbl.replace seen k ())
            (Mi_obs.Coverage.cells_of r.Harness.coverage)
      | _ -> ())
    cells;
  float_of_int (Hashtbl.length seen)

(** The modeled-cycle split, summed over the programs. *)
let cycle_split cells =
  let benches = benches_of cells in
  let total setup =
    List.fold_left
      (fun acc bench ->
        acc + Option.value ~default:0 (cycles cells ~setup ~bench))
      0 benches
  in
  let base = total "base" in
  ("cycles.base", float_of_int base)
  :: List.concat_map
       (fun (name, _) ->
         let meta = total (metadata_of name) in
         [
           ("cycles.metadata." ^ name, float_of_int (meta - base));
           ("cycles.check." ^ name, float_of_int (total name - meta));
         ])
       instrumented

(* ------------------------------------------------------------------ *)
(* Per-layer helpers                                                   *)
(* ------------------------------------------------------------------ *)

(** Runtime counters and static check statistics summed over runs. *)
let run_counters (runs : Harness.run list) =
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 runs) in
  let counter k = sum (fun r -> Harness.counter r k) in
  let static f =
    sum (fun r ->
        List.fold_left (fun a st -> a + f st) 0 r.Harness.static_stats)
  in
  let open Mi_core.Instrument in
  let found = static (fun s -> s.total_checks_found) in
  [
    ("vm.steps", sum (fun r -> r.Harness.steps));
    ("rt.sb.checks", counter "sb.checks");
    ("rt.sb.trie_load", counter "sb.trie_load");
    ("rt.sb.trie_store", counter "sb.trie_store");
    ("rt.lf.checks", counter "lf.checks");
    ("rt.lf.malloc", counter "lf.malloc");
    ("rt.tp.checks", counter "tp.checks");
    ("rt.tp.key_alloc", counter "tp.key_alloc");
    ("core.checks_found", found);
    ("core.checks_placed", static (fun s -> s.total_checks_placed));
    ("core.removed.dominance", static (fun s -> s.total_checks_removed_dominance));
    ("core.removed.static", static (fun s -> s.total_checks_removed_static));
    ("core.removed.hoisted", static (fun s -> s.total_checks_removed_hoisted));
    ("core.elim_ratio", ratio (static (fun s -> s.total_checks_removed)) found);
  ]

(** A traced mirror pass over [jobs]: per-layer self times, residue, and
    the tracing overhead against the same pass untraced.  Where [expect]
    holds the harness result of a job, the mirrored run must agree with
    it (output and cycles, or failing alike); disagreements are returned
    as wrong outputs. *)
let mirror_pass ?expect (jobs : (Harness.setup * Bench.t) list) =
  let expect =
    match expect with Some e -> e | None -> List.map (fun _ -> None) jobs
  in
  let tr = Mi_obs.Trace.create () in
  (* each job runs traced and untraced, alternating which goes first, so
     neither side is favoured by a warmer or a fuller heap *)
  let traced_cpu = ref 0. and untraced_cpu = ref 0. in
  let timed acc f =
    let c0 = Sys.time () in
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    acc := !acc +. (Sys.time () -. c0);
    r
  in
  let runs =
    List.mapi
      (fun i (s, b) ->
        let traced () = timed traced_cpu (fun () -> Mirror.exec ~tracer:tr s b) in
        let untraced () = ignore (timed untraced_cpu (fun () -> Mirror.exec s b)) in
        if i mod 2 = 0 then begin
          let r = traced () in
          untraced ();
          r
        end
        else begin
          untraced ();
          traced ()
        end)
      jobs
  in
  let traced_cpu = !traced_cpu and untraced_cpu = !untraced_cpu in
  let failures =
    List.concat
      (List.map2
         (fun m ((_, (b : Bench.t)), expected) ->
           let why f = [ wrong (b.name ^ ": traced run " ^ f) ] in
           match (m, expected) with
           | Ok (m : Mirror.run), Some (Ok (r : Harness.run))
             when r.Harness.output = m.Mirror.output
                  && r.Harness.cycles = m.Mirror.cycles ->
               []
           | Ok _, Some (Ok _) -> why "differs from the harness run"
           | Error _, Some (Error _) -> [] (* failed alike: counted where the job ran *)
           | Error e, _ -> why ("failed: " ^ e)
           | Ok _, Some (Error _) -> why "ran where the harness run failed"
           | Ok _, None -> [])
         runs (List.combine jobs expect))
  in
  let runs = List.filter_map Result.to_option runs in
  let layer = Mirror.layer_seconds tr in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 runs) in
  let lower = layer "minic" and run_s = layer "vm.run" in
  let metrics =
    [
      ("minic.lower_s", lower);
      ("minic.src_bytes_per_s", ratio (sum (fun r -> r.Mirror.src_bytes)) lower);
      ("passes.pipeline_s", layer "passes.pipeline");
      ("passes.instrs_out", sum (fun r -> r.Mirror.instrs));
      ("core.instrument_s", layer "core");
      ("vm.load_s", layer "vm.load");
      ("vm.run_s", run_s);
      ("vm.steps_per_s", ratio (sum (fun r -> r.Mirror.steps)) run_s);
      ("vm.mem_pages", sum (fun r -> r.Mirror.mem_pages));
      ("rt.install_s", layer "runtimes");
      ("residue_share", ratio (traced_cpu -. Mirror.root_seconds tr) traced_cpu);
      ("trace.overhead", ratio untraced_cpu traced_cpu);
    ]
    @ List.map (fun p -> ("passes." ^ p ^ "_s", layer ("passes." ^ p))) Mirror.pass_names
  in
  ( metrics,
    failures,
    [
      ("traced_cpu_s", Json.Float traced_cpu);
      ("untraced_cpu_s", Json.Float untraced_cpu);
    ] )

(** Bench-kit layer of a harness session whose [Harness.run] calls were
    wrapped in spans on [tr]: compile and execute from the session's own
    spans, the rest of [Harness.run] as its self time, and the cache. *)
let harness_layer h tr =
  let rows = Mi_obs.Trace.collapsed (Harness.obs h).Mi_obs.Obs.trace in
  let root_named pred =
    List.fold_left
      (fun acc (path, _, total) ->
        if (not (String.contains path ';')) && pred path then acc +. total else acc)
      0. rows
    /. 1e6
  in
  let compile = root_named (String.equal "compile") in
  let execute = root_named (String.starts_with ~prefix:"benchmark:") in
  let total = Mirror.layer_seconds tr "harness" in
  let cs = Harness.cache_stats h in
  let hits = float_of_int cs.Harness.hits in
  let misses = float_of_int cs.Harness.misses in
  [
    ("harness.compile_s", compile);
    ("harness.execute_s", execute);
    ("harness.self_s", total -. compile -. execute);
    ("icache.hits", hits);
    ("icache.misses", misses);
    ("icache.hit_ratio", ratio hits (hits +. misses));
  ]

(** One [Harness.run] on [h], wrapped in a span when [tracer] is given;
    returns the result and the latency (ms). *)
let harness_run ?tracer h (s, b) =
  let t0 = now () in
  let r = Mirror.span tracer "Harness.run" (fun () -> Harness.run h s b) in
  (r, (now () -. t0) *. 1000.)
