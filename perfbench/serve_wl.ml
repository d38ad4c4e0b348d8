(** [serve]: an [mi-serve] daemon in its own process with one worker,
    fed by a closed loop of [min 2 nproc] client connections with one
    request in flight each.  Jobs are fuzz-generated programs under four
    variants; after an untimed warm-up, about three requests in four
    repeat a warmed job (a shared-cache hit) and the rest are new. *)

open Workload
module Proto = Mi_server.Proto
module Server = Mi_server.Server
module Drive = Mi_server.Drive
module Gen = Mi_fuzz.Gen
module Oracle = Mi_fuzz.Oracle

let variants = [ "O0"; "O3+sb"; "O3+lf"; "O3+tp" ]
let warm_programs = 32
let fresh_pool = 400

(* programs behind [cells] and [cycles_overhead.*]: the warm ones and
   the first new ones, 128 in all *)
let sample_programs = 128
let min_requests = 1000

(* relative to the run's private directory, the daemon's and the
   client's working directory: short whatever the directory's path *)
let socket = "d.sock"

(* every request is tenant t0's, as [mi-serve --drive] sends them *)
let drive_cfg =
  { (Drive.default_cfg ~socket) with Drive.d_variants = variants; d_tenants = 1 }

let jobs_of_seed s =
  Array.to_list (Drive.jobs_of { drive_cfg with Drive.d_seeds = (s, s) })

(** Generator seed of the first program.  The programs are the same on
    every run, seeds 1 to 432, inside the block the differential-fuzz
    gate of bench/ci.sh checks (1..500); programs from seeds drawn at
    random meet the known [-O3] defects listed in README.md.  The
    workload seed draws the order of the requests. *)
let first_seed = 1

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

(** Daemon mode of the benchmark binary: the server library, as
    [mi-serve] runs it, with one worker. *)
let daemon ~socket =
  ignore (Server.run { (Server.default_cfg ~socket) with Server.workers = 1 })

type daemon = { pid : int; mutable alive : bool }

let kill d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
  end

(* wait for a clean exit; kill after [grace] seconds *)
let reap ?(grace = 10.) d =
  let deadline = now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ -> kill d
    | _ -> d.alive <- false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  if d.alive then wait ()

let spawn () =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "daemon"; "--socket"; socket |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; alive = true } in
  (* every exit path of this process takes the daemon down with it *)
  at_exit (fun () -> kill d);
  d

(* ------------------------------------------------------------------ *)
(* The client                                                          *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable busy : (int * Drive.djob * bool * float) option;
      (** request id, job, traced?, send time *)
}

type sample = { job : Drive.djob; reply : Proto.reply; ms : float; at : float (** reply time *) }

let next_id = ref 0

let write_all fd s =
  let rec go pos =
    if pos < String.length s then
      go (pos + Unix.write_substring fd s pos (String.length s - pos))
  in
  go 0

let rec select fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select fds timeout

let read_reply ?tracer fd =
  match Proto.read_frame fd with
  | None -> failwith "serve: the daemon closed a connection"
  | Some payload ->
      let t = now () in
      (t, Mirror.span tracer "Proto.decode" (fun () -> Proto.reply_of_string payload))

(** Keep one request in flight per connection until [next] runs dry;
    every reply is a sample, timed from send to reply.  [next] says
    whether the request's encode and decode are traced on [tracer]. *)
let closed_loop ?tracer conns ~next =
  let samples = ref [] in
  let traced_if b = if b then tracer else None in
  let send c (job, traced) =
    incr next_id;
    let id = !next_id in
    let frame =
      Mirror.span (traced_if traced) "Proto.encode" (fun () ->
          Proto.request_frame (Drive.request_of drive_cfg id job))
    in
    let t = now () in
    write_all c.fd frame;
    c.busy <- Some (id, job, traced, t)
  in
  let rec loop () =
    Array.iter
      (fun c -> if c.busy = None then Option.iter (send c) (next ()))
      conns;
    let waiting = List.filter (fun c -> c.busy <> None) (Array.to_list conns) in
    if waiting <> [] then begin
      let ready = select (List.map (fun c -> c.fd) waiting) 30. in
      if ready = [] then failwith "serve: no reply within 30 s";
      List.iter
        (fun c ->
          if List.mem c.fd ready then begin
            let id, job, traced, t_send = Option.get c.busy in
            let t, reply = read_reply ?tracer:(traced_if traced) c.fd in
            if Proto.reply_id reply <> id then failwith "serve: reply to another request";
            c.busy <- None;
            samples := { job; reply; ms = (t -. t_send) *. 1000.; at = t } :: !samples
          end)
        waiting;
      loop ()
    end
  in
  loop ();
  List.rev !samples

let request conn r =
  write_all conn.fd (Proto.request_frame r);
  incr next_id;
  snd (read_reply conn.fd)

(* ------------------------------------------------------------------ *)
(* Set-up and the timed phase                                          *)
(* ------------------------------------------------------------------ *)

type session = {
  d : daemon;
  conns : conn array;
  warm : Drive.djob array;
  pool : Drive.djob Queue.t;  (** new jobs, pre-generated *)
  mutable fresh_seed : int;
  warmup : sample list;
}

(** Generate the inputs, start the daemon, connect, and warm its cache
    with every warm job once. *)
let setup () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let s0 = first_seed in
  let warm =
    Array.of_list (List.concat_map jobs_of_seed (List.init warm_programs (( + ) s0)))
  in
  let pool = Queue.create () in
  let fresh0 = s0 + warm_programs in
  for s = fresh0 to fresh0 + fresh_pool - 1 do
    List.iter (fun j -> Queue.add j pool) (jobs_of_seed s)
  done;
  let nconn = min 2 (Domain.recommended_domain_count ()) in
  let d = spawn () in
  let conns =
    Array.init nconn (fun _ -> { fd = Drive.connect_retry socket; busy = None })
  in
  let i = ref 0 in
  let next () =
    if !i < Array.length warm then begin
      incr i;
      Some (warm.(!i - 1), false)
    end
    else None
  in
  let warmup = closed_loop conns ~next in
  { d; conns; warm; pool; fresh_seed = fresh0 + fresh_pool; warmup }

let fresh ss =
  if Queue.is_empty ss.pool then begin
    List.iter (fun j -> Queue.add j ss.pool) (jobs_of_seed ss.fresh_seed);
    ss.fresh_seed <- ss.fresh_seed + 1
  end;
  Queue.pop ss.pool

(** Throughput and median latency, each the median over ten windows of
    equal request count (in reply order): the host's speed drifts over
    seconds, and a slow stretch then moves a few windows, not the run. *)
let windowed ~t0 samples =
  let a = Array.of_list samples in
  let n = Array.length a and w = 10 in
  let lo i = i * n / w in
  let edge i = if i = 0 then t0 else a.(lo i - 1).at in
  let size i = lo (i + 1) - lo i in
  let rates = Array.init w (fun i -> float_of_int (size i) /. (edge (i + 1) -. edge i)) in
  let p50s =
    Array.init w (fun i -> Stats.median (Array.init (size i) (fun k -> a.(lo i + k).ms)))
  in
  (Stats.median rates, Stats.median p50s)

(* requests per block of the traced run, whose blocks alternate
   between untraced and traced so both see the same daemon state *)
let block = 50

(** The timed phase.  With [tracer], odd blocks of requests are traced,
    and the result also carries each kind's requests, seconds and
    client processor seconds. *)
let timed ?tracer ss ~rng ~seconds =
  let sent = ref 0 in
  let t0 = now () in
  let marks = ref [] (* block start times, newest first *) in
  let next () =
    if !sent >= min_requests && now () -. t0 >= seconds then None
    else begin
      if !sent mod block = 0 then marks := (now (), Sys.time ()) :: !marks;
      let traced = tracer <> None && !sent / block mod 2 = 1 in
      incr sent;
      let job =
        if Random.State.int rng 4 < 3 then
          ss.warm.(Random.State.int rng (Array.length ss.warm))
        else fresh ss
      in
      Some (job, traced)
    end
  in
  let samples = closed_loop ?tracer ss.conns ~next in
  let t1 = now () in
  let windows = windowed ~t0 samples in
  (* per kind: requests, seconds and client processor seconds, from
     consecutive block starts *)
  let kinds = [| (0, 0., 0.); (0, 0., 0.) |] in
  let starts = Array.of_list (List.rev !marks) in
  Array.iteri
    (fun k (start, cpu) ->
      let stop, cpu_stop =
        if k + 1 < Array.length starts then starts.(k + 1) else (t1, Sys.time ())
      in
      let n = min block (!sent - (k * block)) in
      let r, sec, c = kinds.(k mod 2) in
      kinds.(k mod 2) <- (r + n, sec +. stop -. start, c +. cpu_stop -. cpu))
    starts;
  (samples, t1 -. t0, windows, kinds)

let close ss =
  (match request ss.conns.(0) (Proto.Shutdown { id = !next_id + 1 }) with
  | Proto.R_bye _ -> ()
  | _ -> failwith "serve: shutdown refused");
  Array.iter (fun c -> Unix.close c.fd) ss.conns;
  reap ss.d

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let stat_float stats path =
  let rec go j = function
    | [] -> j
    | k :: rest -> (
        match Option.bind j (Json.member k) with
        | Some v -> go (Some v) rest
        | None -> failwith ("serve: no stats field " ^ String.concat "." path))
  in
  match go (Some stats) path with
  | Some (Json.Int n) -> float_of_int n
  | Some (Json.Float f) -> f
  | _ -> failwith ("serve: stats field " ^ String.concat "." path ^ " is not a number")

(* sample programs that do not compile or run cleanly: a compiler
   defect, recorded; the requests that met it count as failed *)
let sample_failures cells =
  [
    ( "sample_failures",
      Json.List (List.map (fun f -> Json.Str f) (matrix_failures cells)) );
  ]

let run ~seed ~seconds ~trace =
  let ss = setup () in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let tracer = if trace then Some (Mi_obs.Trace.create ()) else None in
  let samples, elapsed, (rate, p50), kinds = timed ?tracer ss ~rng ~seconds in
  let stats =
    match request ss.conns.(0) (Proto.Stats { id = !next_id + 1 }) with
    | Proto.R_stats { stats; _ } -> stats
    | _ -> failwith "serve: no stats reply"
  in
  let rss = Host.peak_rss_mb ss.d.pid in
  close ss;
  (* recompute every distinct job on a batch harness *)
  let all = ss.warmup @ samples in
  let distinct = Hashtbl.create 1024 in
  List.iter
    (fun s -> Hashtbl.replace distinct (s.job.dj_seed, s.job.dj_tag) s.job)
    all;
  let djobs = Hashtbl.fold (fun _ j acc -> j :: acc) distinct [] in
  let djobs =
    List.sort
      (fun (a : Drive.djob) (b : Drive.djob) ->
        compare (a.dj_seed, a.dj_tag) (b.dj_seed, b.dj_tag))
      djobs
  in
  let tr_h = Mi_obs.Trace.create () in
  let h = Harness.create ~jobs:1 () in
  let hjobs = List.map (fun (j : Drive.djob) -> (j.dj_setup, j.dj_bench)) djobs in
  let batch = List.map (fun j -> fst (harness_run ~tracer:tr_h h j)) hjobs in
  let by_key = Hashtbl.create 1024 in
  List.iter2
    (fun (j : Drive.djob) r -> Hashtbl.replace by_key (j.dj_seed, j.dj_tag) r)
    djobs batch;
  let failures =
    List.filter_map
      (fun s ->
        let batch = Hashtbl.find by_key (s.job.dj_seed, s.job.dj_tag) in
        match Check.serve_reply s.job ~batch s.reply with
        | Check.Agree -> None
        | Check.Failed f ->
            Some
              {
                reason = Printf.sprintf "seed %d %s: %s" s.job.dj_seed s.job.dj_tag f;
                wrong = false;
              }
        | Check.Differ f -> Some (wrong f))
      all
  in
  let sample_benches =
    List.init sample_programs (fun i ->
        Oracle.safe_bench (Gen.generate ~seed:(first_seed + i) ()))
  in
  let ms = Array.of_list (List.map (fun s -> s.ms) samples) in
  let details =
    [
      ("requests", Json.Int (List.length samples));
      ("measured_s", Json.Float elapsed);
      ("distinct_jobs", Json.Int (List.length djobs));
      ("server_stats", stats);
    ]
  in
  let metrics, details, extra_failures =
    match tracer with
    | None ->
        let m, d = common ~ops_per_s:rate ~p50_ms:p50 ~latencies_ms:ms ~rss_mb:rss () in
        let cells = matrix ~coverage:true (reference :: setups) sample_benches in
        ( m @ overheads cells @ [ ("cells", cells_count cells) ],
          details @ d @ sample_failures cells,
          [] )
    | Some tr ->
        let ops (n, sec, _) = float_of_int n /. sec in
        let _, _, traced_cpu = kinds.(1) in
        let layer = Mirror.layer_seconds tr in
        (* the same requests on both sides: warm-up and timed *)
        let client_p50 = Stats.median (Array.of_list (List.map (fun s -> s.ms) all)) in
        let server_p50 = stat_float stats [ "latency_ms"; "p50" ] in
        let cache k = stat_float stats [ "cache"; k ] in
        let hits = cache "hits" and misses = cache "misses" in
        let client = [
            ("server.latency_p50_ms", server_p50);
            ("server.latency_p99_ms", stat_float stats [ "latency_ms"; "p99" ]);
            ("serve.wire_ms", client_p50 -. server_p50);
            ("server.rejected", stat_float stats [ "rejected" ]);
            ("proto.encode_s", layer "proto.encode");
            ("proto.decode_s", layer "proto.decode");
            ("trace.overhead", ops kinds.(1) /. ops kinds.(0));
            ("residue_share", (traced_cpu -. Mirror.root_seconds tr) /. traced_cpu);
            ("icache.hits", hits);
            ("icache.misses", misses);
            ("icache.hit_ratio", ratio hits (hits +. misses));
          ]
        in
        let expect = List.map Option.some batch in
        let layers, mfail, d = mirror_pass ~expect hjobs in
        let cells = matrix (setups @ metadata_setups) sample_benches in
        let ok_runs = List.filter_map Result.to_option batch in
        ( client @ harness_layer h tr_h @ layers @ run_counters ok_runs
          @ cycle_split cells,
          details @ d @ sample_failures cells,
          mfail )
  in
  { attempted = List.length all; failures = failures @ extra_failures; metrics; details }
