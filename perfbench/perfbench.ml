(** The benchmark binary, driven by [run.py] (see README.md).

    {v
    perfbench run --workload suite|fuzz|serve --seed N --seconds S
                  --trace 0|1 --expected FILE [--commit SHA]
    perfbench setup --workload W --seed N --expected FILE
    perfbench daemon --socket PATH
    v}

    [run] measures one workload and prints one JSON line: [correct],
    [attempted], [failed], [metrics] (name to value) and a [record] with
    the host fingerprint, the first failures and details.  [setup] does
    a workload's set-up only and exits, so the set-up can be timed from
    outside, process start included.  [daemon] is the served side of the
    [serve] workload.  The working directory must be a private, empty
    directory: corpora and the daemon's socket go there. *)

open Perfbench_lib
module Json = Mi_obs.Json

let usage () =
  prerr_endline
    "usage: perfbench run|setup|daemon [--workload W] [--seed N] [--seconds S] \
     [--trace 0|1] [--expected FILE] [--commit SHA] [--socket PATH]";
  exit 2

let () =
  let argv = Array.to_list Sys.argv in
  let mode, opts =
    match argv with _ :: mode :: rest -> (mode, rest) | _ -> usage ()
  in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] opts in
  let get k =
    match List.assoc_opt k opts with
    | Some v -> v
    | None ->
        prerr_endline ("perfbench: missing --" ^ k);
        usage ()
  in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  match mode with
  | "daemon" -> Serve_wl.daemon ~socket:(get "socket")
  | "setup" -> (
      let seed = int "seed" in
      match get "workload" with
      | "suite" -> ignore (Suite_wl.prepare ~trace:false ~expected:(get "expected"))
      | "fuzz" -> ignore (Fuzz_wl.prepare ~seed ~trace:false ~tmp:(Sys.getcwd ()))
      | "serve" -> Serve_wl.close (Serve_wl.setup ())
      | _ -> usage ())
  | "run" ->
      let seed = int "seed" and seconds = float_of_int (int "seconds") in
      let trace =
        match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      let r =
        match get "workload" with
        | "suite" -> Suite_wl.run ~trace ~expected:(get "expected")
        | "fuzz" -> Fuzz_wl.run ~seed ~trace ~tmp:(Sys.getcwd ())
        | "serve" -> Serve_wl.run ~seed ~seconds ~trace
        | _ -> usage ()
      in
      let failed = List.length r.Workload.failures in
      let correct = List.for_all (fun f -> not f.Workload.wrong) r.Workload.failures in
      let ok_ratio =
        float_of_int (r.Workload.attempted - failed)
        /. float_of_int (max 1 r.Workload.attempted)
      in
      let metrics =
        Workload.complete ~trace (("ok_ratio", ok_ratio) :: r.Workload.metrics)
      in
      let commit = Option.value ~default:"unknown" (List.assoc_opt "commit" opts) in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool correct);
                ("attempted", Json.Int r.Workload.attempted);
                ("failed", Json.Int failed);
                ( "metrics",
                  Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics) );
                ( "record",
                  Json.Obj
                    ([
                       ("workload", Json.Str (get "workload"));
                       ("seed", Json.Int seed);
                       ("trace", Json.Bool trace);
                       ("host", Host.fingerprint ~commit);
                       ( "first_failures",
                         Json.List
                           (List.map
                              (fun f -> Json.Str f.Workload.reason)
                              (List.filteri (fun i _ -> i < 5) r.Workload.failures)) );
                     ]
                    @ r.Workload.details) );
              ]))
  | _ -> usage ()
