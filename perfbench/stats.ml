(** Order statistics, the geometric mean and span self-time arithmetic.
    Pure functions, shared by every workload and pinned by the tests. *)

let sorted (a : float array) =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median (a : float array) =
  let s = sorted a in
  match Array.length s with
  | 0 -> invalid_arg "Stats.median: no samples"
  | n when n mod 2 = 1 -> s.(n / 2)
  | n -> (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(** The highest whole percentile (at most 99, at least 50) that leaves
    at least ten samples beyond it, or [None] when [n] samples are too
    few for any. *)
let tail_percentile n =
  if n < 20 then None
  else
    let p = min 99 (int_of_float (Float.floor (100. -. (1000. /. float_of_int n)))) in
    (* guard the float floor: p must leave >= 10 samples beyond *)
    let beyond p = n - int_of_float (Float.ceil (float_of_int (p * n) /. 100.)) in
    let rec fit p = if beyond p >= 10 then p else fit (p - 1) in
    Some (fit p)

(** Nearest-rank percentile [p] of an ascending array. *)
let percentile (s : float array) p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (float_of_int (p * n) /. 100.)) in
  s.(max 0 (min (n - 1) (rank - 1)))

(** The tail latency under the percentile rule: the value at
    {!tail_percentile}, or the maximum when there are too few samples
    for any percentile.  Returns the value and the percentile used
    (100 for the maximum). *)
let tail (a : float array) =
  let s = sorted a in
  match tail_percentile (Array.length s) with
  | Some p -> (percentile s p, p)
  | None -> (s.(Array.length s - 1), 100)

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no samples"
  | l ->
      if List.exists (fun x -> not (x > 0.)) l then
        invalid_arg "Stats.geomean: non-positive sample";
      exp (List.fold_left (fun acc x -> acc +. log x) 0. l
           /. float_of_int (List.length l))

(** Self time of every span path, from {!Mi_obs.Trace.collapsed} rows
    [("a;b;c", count, total)]: a path's total minus the totals of its
    direct children.  Paths keep their input order. *)
let self_times (rows : (string * int * float) list) : (string * float) list =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (path, _, total) ->
      match String.rindex_opt path ';' with
      | Some i ->
          let parent = String.sub path 0 i in
          let prev = Option.value ~default:0. (Hashtbl.find_opt children parent) in
          Hashtbl.replace children parent (prev +. total)
      | None -> ())
    rows;
  List.map
    (fun (path, _, total) ->
      (path, total -. Option.value ~default:0. (Hashtbl.find_opt children path)))
    rows

(** Total of the root spans (paths without a parent). *)
let root_total (rows : (string * int * float) list) =
  List.fold_left
    (fun acc (path, _, total) ->
      if String.contains path ';' then acc else acc +. total)
    0. rows

(** Sum self times by the layer [classify] assigns to each path. *)
let by_layer ~classify rows =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (path, self) ->
      let k = classify (String.split_on_char ';' path) in
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (prev +. self))
    (self_times rows);
  fun k -> Option.value ~default:0. (Hashtbl.find_opt tbl k)
