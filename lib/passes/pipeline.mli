(** Compiler pipelines with instrumentation extension points (the
    paper's Figure 8).

    The MemInstrument pass can be plugged into the -O3 pipeline at
    [ModuleOptimizerEarly] (before the main scalar optimizations, but —
    as in clang — after the frontend's per-function mem2reg/cleanup),
    [ScalarOptimizerLate], or [VectorizerStart].  Because inserted checks
    may abort, early instrumentation blocks inlining, GVN and LICM — the
    extension-point effect of Figures 12/13. *)

open Mi_mir

type extension_point =
  | ModuleOptimizerEarly
  | ScalarOptimizerLate
  | VectorizerStart

val ep_name : extension_point -> string
val all_extension_points : extension_point list

(** Optimization levels.  [O3] is the baseline of the paper's runtime
    evaluation; [O0] leaves the naive lowering untouched. *)
type level = O0 | O1 | O3

(** {1 Stages}

    The pipeline at a level is a sequence of phases (named pass groups,
    one tracing span each) with the three extension points placed
    between them.  {!run} is exactly [split], then the phases before the
    extension point, the instrumenter, and the phases after it — which
    is what lets a caller compiling one module under many setups share
    every common prefix. *)

type phase

val split : level -> extension_point -> phase list * phase list
(** The phases before extension point [ep] at [level] and after it.
    Phases are shared values: two setups reach the same intermediate
    module iff their prefixes are physically equal element-wise. *)

val run_phase : ?tracer:Mi_obs.Trace.t -> phase -> Irmod.t -> unit
(** Run one phase in place (under a ["phase"] span with [tracer]). *)

val run_instrument :
  ?tracer:Mi_obs.Trace.t ->
  extension_point ->
  (Irmod.t -> unit) ->
  Irmod.t ->
  unit
(** Run the instrumenter at [ep], marking it with an instant event. *)

val run :
  ?level:level ->
  ?instrument:(Irmod.t -> unit) ->
  ?ep:extension_point ->
  ?tracer:Mi_obs.Trace.t ->
  Irmod.t ->
  unit
(** Optimize [m] in place at [level] (default [O3]), invoking
    [instrument] at extension point [ep] (default [VectorizerStart]).
    Instrumentation-inserted code is subject to every pass that runs
    after its extension point.  At [O0] the instrumentation runs on the
    unoptimized module (all extension points coincide).  Built from
    {!split}, {!run_phase} and {!run_instrument}.

    With [tracer], every pipeline phase and every pass within it is
    wrapped in a {!Mi_obs.Trace} span whose arguments record the
    instruction-count delta the pass caused, and an instant event marks
    where the instrumentation extension point fired. *)
