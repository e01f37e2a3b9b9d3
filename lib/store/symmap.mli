(** Store-local symbol table.

    The engine's process-global [Ast.Symtab] assigns intern ids in
    first-sight order, so ids persisted by one process would not
    re-pack identically in the next.  A [Symmap] therefore numbers
    strings in the order they first reach *this store*: WAL records
    carry the strings newly assigned while encoding them (in id order),
    and snapshots carry the whole table, so replaying a store
    reconstructs the exact id space regardless of what the process
    Symtab looks like.  Cells keep the engine's packing scheme — even
    = integer as-is, odd = [(store_id lsl 1) lor 1].

    Lookups are keyed on the process intern id, not the string: a
    growable int array maps each process id to its store id, so
    encoding a cell is an array read.  The price is one int per process
    symbol id (up to the highest id this store has seen), per store. *)

type t

val create : unit -> t

val encode_cell : t -> Xcw_datalog.Ast.packed -> int
(** Process-packed cell -> store cell, assigning fresh store ids as
    needed (collect them with {!take_fresh} before framing the record). *)

val decode_cell : t -> int -> Xcw_datalog.Ast.packed
(** Store cell -> process-packed cell.  Raises [Codec.R.Corrupt] on an
    unregistered id. *)

val register : t -> string -> unit
(** Recovery side: bind the next store id to [s] (and to the process
    intern table), without marking it fresh. *)

val take_fresh : t -> string list
(** Strings assigned since the last call, in id order; the caller
    writes them into the record ahead of the cells that use them. *)

val size : t -> int
val dump : t -> string list  (** all strings in id order (snapshots) *)
