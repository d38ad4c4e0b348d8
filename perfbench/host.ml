(** Host fingerprint carried by every result record: core count, OCaml
    version, the commit under test and a fixed calibration-loop score,
    so that records from different machines are not compared blindly. *)

(* A fixed integer loop (an LCG): the score is millions of iterations
   per second, best of three, a stand-in for single-core speed. *)
let calibration () =
  let iters = 20_000_000 in
  let once () =
    let t0 = Unix.gettimeofday () in
    let x = ref 1 in
    for _ = 1 to iters do
      x := (!x * 1103515245) + 12345
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (Sys.opaque_identity !x, dt)
  in
  let best = ref infinity in
  for _ = 1 to 3 do
    let _, dt = once () in
    if dt < !best then best := dt
  done;
  float_of_int iters /. !best /. 1e6

let fingerprint ~commit : Mi_obs.Json.t =
  Mi_obs.Json.Obj
    [
      ("nproc", Mi_obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Mi_obs.Json.Str Sys.ocaml_version);
      ("commit", Mi_obs.Json.Str commit);
      ("calibration_mips", Mi_obs.Json.Float (calibration ()));
    ]

(** Peak resident set of process [pid] ([VmHWM]), in MiB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())
