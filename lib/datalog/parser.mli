(** Parser for Datalog rules in Souffle-flavoured concrete syntax.

    Lets deployments load cross-chain rules from [.dl]-style text at
    runtime, as the original XChainWatcher does, instead of compiling
    them in.  The output of {!Ast.pp_rule} parses back to an
    alpha-equivalent rule.

    Syntax: [head(args) :- lit, !neg(args), x + 1800 <= y.] with
    [//], [#] and [/* */] comments; identifiers in argument position
    are variables; [_] is an anonymous variable; strings are
    double-quoted constants. *)

exception Parse_error of { line : int; col : int; message : string }
(** An error at the end of the input points just past its last
    character. *)

val parse_program : string -> Ast.rule list
(** Parse a sequence of rules and body-less facts. *)

val parse_rule : string -> Ast.rule
(** Parse exactly one rule. *)
