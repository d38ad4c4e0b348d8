(** Compiler pipelines with instrumentation extension points.

    Mirrors Figure 8 of the paper: the MemInstrument pass can be plugged
    into the -O3 pipeline at [ModuleOptimizerEarly] (before the main
    scalar optimizations), [ScalarOptimizerLate] (after them), or
    [VectorizerStart] (just before late/vectorization cleanup).  Because
    inserted checks may abort, instrumenting early blocks mem2reg, LICM
    and friends — the ~30% effect of Figures 12/13. *)

open Mi_mir

type extension_point =
  | ModuleOptimizerEarly
  | ScalarOptimizerLate
  | VectorizerStart

let ep_name = function
  | ModuleOptimizerEarly -> "ModuleOptimizerEarly"
  | ScalarOptimizerLate -> "ScalarOptimizerLate"
  | VectorizerStart -> "VectorizerStart"

let all_extension_points =
  [ ModuleOptimizerEarly; ScalarOptimizerLate; VectorizerStart ]

(** Optimization levels.  [O3] is the baseline of the runtime evaluation;
    [O0] leaves the naive lowering untouched. *)
type level = O0 | O1 | O3

(* A phase is a named pass group, iterated to a fixed point for at most
   [rounds] rounds (one round: each pass runs once). *)
type phase = { name : string; passes : Pass.t list; rounds : int }

(* The pipeline phases.  Like clang, the frontend already runs a
   per-function simplification (SROA/mem2reg and cleanup) before the
   module optimization pipeline begins — so code reaching the
   ModuleOptimizerEarly extension point is in promoted SSA form, and the
   early-vs-late gap of Figures 12/13 comes from the inlining, GVN and
   LICM that checks subsequently block, not from unpromoted allocas. *)

let canonicalize =
  {
    name = "canonicalize";
    passes =
      [ Simplifycfg.pass; Mem2reg.pass; Instcombine.pass; Simplifycfg.pass ];
    rounds = 1;
  }

let o1_scalar =
  {
    name = "scalar-opts";
    passes = [ Instcombine.pass; Dce.pass; Simplifycfg.pass ];
    rounds = 1;
  }

let o3_scalar =
  {
    name = "scalar-opts";
    passes =
      [
        Instcombine.pass;
        Simplifycfg.pass;
        Inline.pass;
        Mem2reg.pass;
        Instcombine.pass;
        Gvn.pass;
        Licm.pass;
        Dce.pass;
        Simplifycfg.pass;
        Instcombine.pass;
        Gvn.pass;
        Dce.pass;
      ];
    rounds = 2;
  }

let late_scalar =
  {
    name = "late-scalar";
    passes =
      [ Instcombine.pass; Gvn.pass; Licm.pass; Dce.pass; Simplifycfg.pass ];
    rounds = 1;
  }

(* stands in for the vectorizer + final cleanup; the paper's SoftBound
   implementation does not support vectorized code, so the placeholder is
   cleanup only *)
let late_cleanup =
  {
    name = "late-cleanup";
    passes = [ Instcombine.pass; Dce.pass; Simplifycfg.pass ];
    rounds = 1;
  }

type step = Phase of phase | Ep of extension_point

(* Figure 8: each level's phases in order, each extension point at its
   place between them.  clang -O0 performs no optimization, so there all
   extension points coincide after the (empty) pipeline. *)
let schedule = function
  | O0 -> []
  | O1 ->
      [
        Phase canonicalize;
        Ep ModuleOptimizerEarly;
        Phase o1_scalar;
        Ep ScalarOptimizerLate;
        Ep VectorizerStart;
        Phase late_cleanup;
      ]
  | O3 ->
      [
        Phase canonicalize;
        Ep ModuleOptimizerEarly;
        Phase o3_scalar;
        Ep ScalarOptimizerLate;
        Phase late_scalar;
        Ep VectorizerStart;
        Phase late_cleanup;
      ]

let split level ep =
  let phases = List.filter_map (function Phase p -> Some p | Ep _ -> None) in
  let rec go before = function
    | [] -> (List.rev before, [])
    | Ep e :: rest when e = ep -> (List.rev before, phases rest)
    | Ep _ :: rest -> go before rest
    | Phase p :: rest -> go (p :: before) rest
  in
  go [] (schedule level)

let run_phase ?tracer p m =
  let body () =
    ignore (Pass.run_fixpoint ?tracer ~max_rounds:p.rounds p.passes m)
  in
  match tracer with
  | None -> body ()
  | Some tr ->
      Mi_obs.Trace.with_span tr ~cat:"phase"
        ~args:[ ("instrs", Mi_obs.Trace.Aint (Irmod.instr_count m)) ]
        p.name body

let run_instrument ?tracer ep instrument m =
  Option.iter
    (fun tr ->
      Mi_obs.Trace.instant tr ~cat:"pipeline"
        ~args:[ ("ep", Mi_obs.Trace.Astr (ep_name ep)) ]
        "extension-point")
    tracer;
  instrument m

(** Run the pipeline at [level] on [m], invoking [instrument] (if any) at
    extension point [ep].  Instrumentation-inserted code is subject to all
    passes that run after its extension point, exactly as in Fig. 8.  With
    [tracer], each phase and each pass within it runs under a tracing
    span ({!Mi_obs.Trace}) carrying instruction-count deltas. *)
let run ?(level = O3) ?instrument ?(ep = VectorizerStart) ?tracer
    (m : Irmod.t) : unit =
  let before, after = split level ep in
  List.iter (fun p -> run_phase ?tracer p m) before;
  Option.iter (fun f -> run_instrument ?tracer ep f m) instrument;
  List.iter (fun p -> run_phase ?tracer p m) after
