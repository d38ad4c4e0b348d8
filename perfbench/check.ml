(** The output check.  It rests only on invariants: a frozen table of
    each suite program's output and exit status, and byte equality of
    every served result with a batch recomputation.  Modeled counters
    are never part of it. *)

module Harness = Mi_bench_kit.Harness
module Json = Mi_obs.Json
module Proto = Mi_server.Proto

type expected = { ex_exit : int; ex_output : string }

(** Parse the expected-output table: [{"programs": [{"name", "exit",
    "output"}, ...]}].  Raises [Failure] on any malformed entry. *)
let expected_of_string s : (string, expected) Hashtbl.t =
  let bad what = failwith ("expected-output table: " ^ what) in
  let tbl = Hashtbl.create 32 in
  let progs =
    match Json.member "programs" (Json.of_string s) with
    | Some (Json.List l) -> l
    | _ -> bad "no \"programs\" list"
  in
  List.iter
    (fun p ->
      match
        (Json.member "name" p, Json.member "exit" p, Json.member "output" p)
      with
      | Some (Json.Str name), Some (Json.Int ex_exit), Some (Json.Str ex_output)
        ->
          if Hashtbl.mem tbl name then bad ("duplicate entry " ^ name);
          Hashtbl.replace tbl name { ex_exit; ex_output }
      | _ -> bad "entry without name/exit/output")
    progs;
  tbl

let load_expected path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  expected_of_string s

let outcome_string = function
  | Mi_vm.Interp.Exited c -> Printf.sprintf "exit %d" c
  | Mi_vm.Interp.Trapped m -> "trap: " ^ m
  | Mi_vm.Interp.Exhausted n -> Printf.sprintf "fuel exhausted (%d)" n
  | Mi_vm.Interp.Safety_violation { checker; reason } ->
      Printf.sprintf "%s violation: %s" checker reason

(** [None] when the run matches the frozen entry of program [name]. *)
let suite_run tbl ~name ~setup (r : (Harness.run, Harness.error) result) =
  let fail fmt = Printf.ksprintf (fun m -> Some (name ^ " " ^ setup ^ ": " ^ m)) fmt in
  match (Hashtbl.find_opt tbl name, r) with
  | None, _ -> fail "no expected output"
  | _, Error e -> fail "%s" e.Harness.reason
  | Some ex, Ok r -> (
      match r.Harness.outcome with
      | Mi_vm.Interp.Exited c when c = ex.ex_exit && r.Harness.output = ex.ex_output
        ->
          None
      | Mi_vm.Interp.Exited c when c <> ex.ex_exit ->
          fail "exit %d, expected %d" c ex.ex_exit
      | Mi_vm.Interp.Exited _ ->
          fail "output %S, expected %S" r.Harness.output ex.ex_output
      | o -> fail "%s" (outcome_string o))

type verdict =
  | Agree
  | Failed of string
      (** a failed operation with a correct reply: the job failed the
          same way in the batch run, or the server's breaker answered
          [degraded] for its approach *)
  | Differ of string

(** A served reply against the batch recomputation of the same job, as
    [mi-serve --drive] compares them: [ok] and byte-identical, or failed
    with the batch's reason.  An [error] reply is a wrong output. *)
let serve_reply (j : Mi_server.Drive.djob)
    ~(batch : (Harness.run, Harness.error) result) (reply : Proto.reply) =
  match (Mi_server.Drive.compare_one j reply batch, reply) with
  | Some d, _ -> Differ d
  | None, Proto.R_ok _ -> Agree
  | None, (Proto.R_failed { reason; _ } | Proto.R_degraded { reason; _ }) ->
      Failed reason
  | None, r ->
      Differ
        (Printf.sprintf "seed %d %s: reply %s" j.dj_seed j.dj_tag
           (Json.to_string (Proto.reply_to_json r)))
