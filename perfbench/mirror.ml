(** The traced executor: compile and run one job by calling each layer's
    public function from here, each call in a {!Mi_obs.Trace} span —
    the same calls {!Mi_bench_kit.Harness} makes, so the spans split a
    job's time across the layers without tracing inside the libraries.
    Span times are {!Sys.time} (processor time), as in the tracer. *)

module Harness = Mi_bench_kit.Harness
module Bench = Mi_bench_kit.Bench
module Trace = Mi_obs.Trace

type run = {
  outcome : Mi_vm.Interp.outcome;
  cycles : int;
  steps : int;
  output : string;
  mem_pages : int;
  instrs : int;  (** static instruction count of the linked program *)
  src_bytes : int;  (** MiniC bytes lowered *)
}

let span tracer name f =
  match tracer with
  | None -> f ()
  | Some tr -> Trace.with_span tr ~cat:"perfbench" name f

let exec ?tracer (setup : Harness.setup) (b : Bench.t) : run =
  let obs = Mi_obs.Obs.create () in
  let src_bytes = ref 0 in
  let modules =
    List.map
      (fun (s : Bench.source) ->
        let mode = Option.value ~default:setup.lowering s.mode_override in
        src_bytes := !src_bytes + String.length s.code;
        let m =
          span tracer "Lower.compile" (fun () ->
              Mi_minic.Lower.compile ~mode ~name:s.src_name s.code)
        in
        let instrument =
          match setup.config with
          | Some cfg when s.instrument ->
              Some
                (fun m ->
                  span tracer "Instrument.run" (fun () ->
                      ignore (Mi_core.Instrument.run ~obs cfg m)))
          | _ -> None
        in
        span tracer "Pipeline.run" (fun () ->
            Mi_passes.Pipeline.run ~level:setup.level ?instrument ~ep:setup.ep
              ?tracer m);
        (m, s.instrument))
      b.sources
  in
  let st =
    Mi_vm.State.create ~seed:setup.seed ~metrics:obs.Mi_obs.Obs.metrics
      ~sites:obs.Mi_obs.Obs.sites ()
  in
  (match setup.dispatch with
  | Harness.Fast -> ()
  | Harness.Generic -> st.Mi_vm.State.fast_dispatch <- false);
  Mi_vm.Builtins.install st;
  let alloc_global =
    match setup.config with
    | Some cfg ->
        span tracer "Runtimes.install" (fun () ->
            Mi_runtimes.Runtimes.install cfg ~modules st)
    | None -> None
  in
  let img =
    span tracer "Interp.load" (fun () ->
        Mi_vm.Interp.load ?alloc_global st (List.map fst modules))
  in
  let res = span tracer "Interp.run" (fun () -> Mi_vm.Interp.run st img) in
  {
    outcome = res.outcome;
    cycles = res.cycles;
    steps = res.steps;
    output = res.output;
    mem_pages = res.mem_pages;
    instrs = Mi_mir.Irmod.instr_count (Mi_vm.Interp.merged_module img);
    src_bytes = !src_bytes;
  }

let pass_names =
  [ "simplifycfg"; "mem2reg"; "instcombine"; "inline"; "gvn"; "licm"; "dce" ]

(** The layer of a span path (outermost first): its innermost span that
    names a layer.  Pipeline phases belong to [passes.pipeline]. *)
let layer_of_path path =
  let of_name = function
    | "Lower.compile" -> Some "minic"
    | "Pipeline.run" -> Some "passes.pipeline"
    | "Instrument.run" -> Some "core"
    | "Runtimes.install" -> Some "runtimes"
    | "Interp.load" -> Some "vm.load"
    | "Interp.run" -> Some "vm.run"
    | "Harness.run" -> Some "harness"
    | "Proto.encode" -> Some "proto.encode"
    | "Proto.decode" -> Some "proto.decode"
    | p when List.mem p pass_names -> Some ("passes." ^ p)
    | _ -> None
  in
  match List.find_map of_name (List.rev path) with
  | Some l -> l
  | None -> "other"

(** Seconds of self time per layer, from a tracer's collapsed stacks. *)
let layer_seconds tr =
  let rows = Trace.collapsed tr in
  let f = Stats.by_layer ~classify:layer_of_path rows in
  fun layer -> f layer /. 1e6

(** Processor time (seconds) spent in root spans. *)
let root_seconds tr = Stats.root_total (Trace.collapsed tr) /. 1e6
