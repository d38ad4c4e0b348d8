(** MIR modules (translation units): globals and functions — the unit the
    instrumentation pass operates on, mirroring LLVM's module passes. *)

(** One field of a global initializer, laid out in order. *)
type gfield =
  | GBytes of string  (** raw little-endian bytes *)
  | GPtr of string  (** 8-byte address of another global, patched at load *)
  | GZero of int  (** [n] zero bytes *)

type global = {
  gname : string;
  gsize : int;  (** declared size in bytes; 0 for size-zero extern decls *)
  galign : int;
  gfields : gfield list;  (** empty for extern declarations *)
  gextern : bool;
      (** declared here, defined in another (possibly uninstrumented)
          translation unit *)
  gsize_known : bool;
      (** false for C's [extern int a[];] — the size-zero declarations of
          §4.3/§4.6 that force SoftBound to wide bounds *)
}

type t = {
  mname : string;
  mutable globals : global list;
  mutable funcs : Func.t list;
}

val mk : ?globals:global list -> ?funcs:Func.t list -> string -> t

val field_size : gfield -> int
val fields_size : gfield list -> int

val mk_global :
  ?align:int ->
  ?extern:bool ->
  ?size_known:bool ->
  name:string ->
  size:int ->
  gfield list ->
  global
(** Checks that the initializer fields sum to the declared size. *)

val copy : t -> t
(** A fresh module with fresh {!Func.t} records: mutating the copy (as
    every pass and the instrumenter do) leaves [m] unchanged.  Blocks and
    instructions are immutable and shared, so a copy costs O(#funcs). *)

val find_func : t -> string -> Func.t option
val find_func_exn : t -> string -> Func.t
val find_global : t -> string -> global option
val add_func : t -> Func.t -> unit
val add_global : t -> global -> unit

val defined_funcs : t -> Func.t list
(** Functions with a body (subject to instrumentation/optimization). *)

val instr_count : t -> int
