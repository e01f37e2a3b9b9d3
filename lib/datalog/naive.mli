(** A naive bottom-up Datalog evaluator: the reference oracle for
    {!Engine}.

    Tuples are plain [Ast.const] lists, with no indices, no semi-naive
    deltas and no interning, and the module stratifies the program by
    itself.  It shares nothing with {!Engine} but the {!Ast} types and
    the {!Engine.aggregate} declaration, so the two agreeing says
    something about the engine's joins, indices, deltas and strata.
    It handles the engine's language: negation, comparisons with the
    engine's semantics, and grouped-sum aggregates.  It is slow by
    design; use it on test-sized fact bases. *)

type db

val create_db : unit -> db
val add_fact : db -> string -> Ast.const list -> unit

val facts : db -> string -> Ast.const list list
(** Sorted with polymorphic compare. *)

val run : ?aggregates:Engine.aggregate list -> db -> Ast.program -> int
(** Evaluate [program] to its fixpoint, after computing [aggregates]
    (default none) over the facts loaded so far.  Returns the number of
    tuples added, aggregate tuples included, as [Engine.run]'s
    [tuples_derived] counts them.  Raises [Invalid_argument] on
    negation inside a recursive cycle or a string in arithmetic. *)
