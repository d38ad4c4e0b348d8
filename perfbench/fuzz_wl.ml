(** [fuzz]: the guided soak at a fixed exec budget over a fresh, empty
    corpus, repeated until the run's time is spent.  Each candidate is a
    small program compiled under 17 setups, so the frontend, the pass
    pipeline and the instrumenter dominate, and every cache lookup
    misses. *)

open Workload
module Fuzz = Mi_fuzz.Fuzz
module Corpus = Mi_fuzz.Corpus
module Oracle = Mi_fuzz.Oracle
module Gen = Mi_fuzz.Gen

(** Matrix executions per soak; the cost per exec grows with it, so it
    is part of the workload. *)
let budget = 40

(** Soaks per run, each from its own generator seeds: one soak's cost
    and coverage swing by a quarter with its seeds, so a run averages
    over several, and twenty give [tail_ms] a percentile below the
    maximum. *)
let soaks = 20

(** Corpus entries per soak behind [cycles_overhead.*]. *)
let sample_per_soak = 3

let workers () = min 2 (Domain.recommended_domain_count ())

(** Generator seeds of soak [k]: the same twenty soaks on every run,
    from the library's default [seed_start] of 1 on.  Soaks from seeds
    drawn at random meet the known [-O3] defects listed in README.md
    in about two runs of five, and a benchmark input must not fail. *)
let seed_start k = 1 + (k * 1000)

(** The soaks in the order the workload seed gives them. *)
let order ~seed =
  let rng = Random.State.make [| seed; 0xf022 |] in
  List.init soaks (fun k -> (Random.State.bits rng, k))
  |> List.sort compare |> List.map snd

(** The run's soaks, built before any timing: a fresh corpus directory
    under [tmp] and a configuration for each soak (the first only in a
    traced run), and for the repeat of the first. *)
let prepare ~seed ~trace ~tmp =
  let config name k =
    let dir = Filename.concat tmp ("corpus-" ^ name) in
    Unix.mkdir dir 0o700;
    Fuzz.soak_config ~jobs:(workers ()) ~max_execs:budget
      ~seed_start:(seed_start k) ~corpus_dir:dir ()
  in
  let ks = order ~seed in
  let first = List.hd ks in
  ( List.map (fun k -> config (string_of_int k) k) (if trace then [ first ] else ks),
    config "repeat" first )

(** A soak's failed operations: each candidate with findings (named by
    its first finding) and each missed mutant. *)
let soak_failures (r : Fuzz.report) =
  let seeds =
    List.sort_uniq compare (List.map (fun f -> f.Oracle.f_seed) r.Fuzz.r_findings)
  in
  List.map
    (fun s ->
      let fs = List.filter (fun f -> f.Oracle.f_seed = s) r.Fuzz.r_findings in
      Printf.sprintf "finding: %s (%d setups)"
        (Oracle.finding_to_string (List.hd fs))
        (List.length fs))
    seeds
  @ List.init (Fuzz.missed_total r) (fun _ -> "missed mutant")

let execs (r : Fuzz.report) =
  match r.Fuzz.r_corpus with Some c -> c.Fuzz.cs_execs | None -> 0

let entry_bench (e : Corpus.entry) =
  Oracle.bench_of_sources ~name:(Fuzz.bench_name_of_id e.Corpus.en_id)
    e.Corpus.en_sources

(* the soak's mutants, rebuilt from their seeds exactly as the soak
   derives them *)
let mutant_of_seed s =
  let p = Gen.generate ~seed:s () in
  match if s land 1 = 1 then Gen.mutate_temporal p ~mseed:s else None with
  | Some m -> m
  | None -> Gen.mutate p ~mseed:0

let run ~seed ~trace ~tmp =
  let configs, repeat = prepare ~seed ~trace ~tmp in
  let failures = ref [] in
  let fail l = failures := List.rev_append (List.map wrong l) !failures in
  let cpu0 = Unix.times () in
  (* measured phase: whole soaks *)
  let timed =
    List.map
      (fun cfg ->
        let t0 = now () in
        let r = Fuzz.soak_run cfg in
        (r, now () -. t0))
      configs
  in
  let cpu1 = Unix.times () in
  let rss = Host.peak_rss_mb 0 in
  let reports = List.map fst timed in
  let first = List.hd reports in
  let ops = List.fold_left (fun a r -> a + execs r) 0 reports in
  List.iter (fun r -> fail (soak_failures r)) reports;
  (* the soak is deterministic: a repeat mints the same cells and meets
     the same failures (counted once, in the first) *)
  let again = Fuzz.soak_run repeat in
  if
    again.Fuzz.r_cells <> first.Fuzz.r_cells
    || soak_failures again <> soak_failures first
  then
    fail
      [
        Printf.sprintf "a repeat differs: cells %d, %d failures; first %d, %d"
          again.Fuzz.r_cells
          (List.length (soak_failures again))
          first.Fuzz.r_cells
          (List.length (soak_failures first));
      ];
  let entries cfg = Corpus.load ~dir:cfg.Fuzz.sk_corpus_dir in
  let sample_benches =
    List.concat_map
      (fun cfg ->
        entries cfg
        |> List.filteri (fun i _ -> i < sample_per_soak)
        |> List.map entry_bench)
      configs
  in
  let entries = entries (List.hd configs) in
  let corpus_stats =
    match first.Fuzz.r_corpus with
    | Some c -> c
    | None -> failwith "soak without corpus stats"
  in
  let details =
    [
      ("soaks", Json.Int (List.length reports));
      ( "soak_cells",
        Json.List (List.map (fun r -> Json.Int r.Fuzz.r_cells) reports) );
      ("entries", Json.Int (List.length entries));
      ("safe_candidates", Json.Int first.Fuzz.r_safe_total);
      ("mutants", Json.Int (List.length first.Fuzz.r_mutants));
    ]
  in
  let metrics, details =
    if not trace then begin
      (* the median soak's throughput: one slow soak moves one sample *)
      let ops_per_s =
        Stats.median
          (Array.of_list (List.map (fun (r, t) -> float_of_int (execs r) /. t) timed))
      in
      let m, d =
        common ~ops_per_s
          ~latencies_ms:(Array.of_list (List.map (fun (_, t) -> t *. 1000.) timed))
          ~rss_mb:rss ()
      in
      let cells = matrix setups sample_benches in
      fail (matrix_failures cells);
      let mean_cells =
        List.fold_left (fun a r -> a +. float_of_int r.Fuzz.r_cells) 0. reports
        /. float_of_int (List.length reports)
      in
      (m @ overheads cells @ [ ("cells", mean_cells) ], details @ d)
    end
    else begin
      (* replay what the soak ran through the traced calls: every corpus
         entry under the safe matrix, and every mutant under its own *)
      let safe_jobs =
        List.concat_map (fun e -> Oracle.safe_jobs_of (entry_bench e)) entries
      in
      let mut_jobs =
        List.concat_map
          (fun (mr : Oracle.mutant_result) ->
            Oracle.mutant_jobs (mutant_of_seed mr.Oracle.mr_seed))
          first.Fuzz.r_mutants
      in
      let h = Harness.create ~jobs:1 () in
      let tr = Mi_obs.Trace.create () in
      let hr = List.map (harness_run ~tracer:tr h) safe_jobs in
      let layers, mfail, d = mirror_pass (safe_jobs @ mut_jobs) in
      failures := List.rev_append mfail !failures;
      let c0 = Sys.time () in
      let replay =
        List.iter (fun (s, b) -> try ignore (Mirror.exec s b) with _ -> ())
      in
      replay safe_jobs;
      let safe_cpu = Sys.time () -. c0 in
      let c1 = Sys.time () in
      replay mut_jobs;
      let mut_cpu = Sys.time () -. c1 in
      (* candidates that were not admitted left no entry: scale the safe
         replay by candidates run per entry replayed *)
      let n_entries = max 1 (List.length entries) in
      let matrix_s =
        (safe_cpu *. float_of_int first.Fuzz.r_safe_total
         /. float_of_int n_entries)
        +. mut_cpu
      in
      let soak_cpu =
        cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime
        -. (cpu0.Unix.tms_utime +. cpu0.Unix.tms_stime)
      in
      let cells = matrix (setups @ metadata_setups) sample_benches in
      fail (matrix_failures cells);
      let ok_runs = List.filter_map (fun (r, _) -> Result.to_option r) hr in
      ( harness_layer h tr @ layers @ run_counters ok_runs @ cycle_split cells
        @ [
            ("fuzz.matrix_s", matrix_s);
            ("fuzz.rest_s", soak_cpu -. matrix_s);
            ( "fuzz.admit_ratio",
              float_of_int (List.length entries) /. float_of_int (max 1 ops) );
            ("fuzz.rounds", float_of_int corpus_stats.Fuzz.cs_rounds);
          ],
        details @ d @ [ ("soak_cpu_s", Json.Float soak_cpu) ] )
    end
  in
  { attempted = ops; failures = List.rev !failures; metrics; details }
