(** [suite]: the 20 suite programs under the six setups, 120 jobs, each
    on fresh harness sessions with one worker and no disk cache — what a
    [mi-experiments] user pays.  VM execution dominates it. *)

open Workload

(* The job set is fixed; so is its order, the suite's own: the order
   moves the run time (it changes how the heap grows), so a seeded
   shuffle would measure the shuffle. *)
let jobs =
  List.concat_map
    (fun (b : Bench.t) -> List.map (fun (n, s) -> (n, s, b)) setups)
    Mi_bench_kit.Suite.all

(** Passes per run: the matrix runs [reps] times, each pass on a fresh
    session, and every job run is a latency sample.  The host's speed
    drifts over seconds, and the slowest jobs belong to two programs run
    at different points of a pass: a per-job median ranks them by the
    stretch each met, while the tail over every run is set by the
    slowest program alone. *)
let reps = 3

(** Everything the measured phase needs, built before any timing: the
    expected-output table, the jobs, and one fresh session per pass (a
    traced run makes one pass). *)
let prepare ~trace ~expected =
  ( Check.load_expected expected,
    jobs,
    Array.init (if trace then 1 else reps) (fun _ -> Harness.create ~jobs:1 ()) )

let run ~trace ~expected =
  let tbl, js, sessions = prepare ~trace ~expected in
  let failures = ref [] in
  let fail l = failures := List.rev_append (List.map wrong l) !failures in
  let tracer = if trace then Some (Mi_obs.Trace.create ()) else None in
  (* measured phase; a traced run spends its time on the layer split *)
  let check (n, _, (b : Bench.t)) (r, _) =
    Option.iter (fun f -> fail [ f ]) (Check.suite_run tbl ~name:b.name ~setup:n r)
  in
  let passes =
    Array.map
      (fun h ->
        List.map
          (fun ((_, s, b) as j) ->
            let run = harness_run ?tracer h (s, b) in
            check j run;
            run)
          js)
      sessions
  in
  let latencies = Array.of_list (List.concat_map (List.map snd) (Array.to_list passes)) in
  let rss = Host.peak_rss_mb 0 in
  let rs = List.map fst passes.(0) in
  let cells =
    List.map2 (fun (n, _, (b : Bench.t)) res -> { setup = n; bench = b.name; res }) js rs
  in
  let metrics, details =
    if not trace then begin
      let seconds = Array.fold_left ( +. ) 0. latencies /. 1000. in
      let m, d =
        common
          ~ops_per_s:(float_of_int (Array.length latencies) /. seconds)
          ~latencies_ms:latencies ~rss_mb:rss ()
      in
      (* coverage of the suite programs, on the fuzz oracle's reference *)
      let cov = matrix ~coverage:true [ reference ] Mi_bench_kit.Suite.all in
      fail (matrix_failures cov);
      (m @ overheads cells @ [ ("cells", cells_count cov) ], d)
    end
    else begin
      let harness = harness_layer sessions.(0) (Option.get tracer) in
      let expect = List.map Option.some rs in
      let layers, mfail, d =
        mirror_pass ~expect (List.map (fun (_, s, b) -> (s, b)) js)
      in
      failures := List.rev_append mfail !failures;
      let meta = matrix metadata_setups Mi_bench_kit.Suite.all in
      fail (matrix_failures meta);
      let ok_runs = List.filter_map Result.to_option rs in
      (harness @ layers @ run_counters ok_runs @ cycle_split (cells @ meta), d)
    end
  in
  {
    attempted = List.length js * Array.length sessions;
    failures = List.rev !failures;
    metrics;
    details;
  }
