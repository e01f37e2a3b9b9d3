(** A parser for Datalog rules in Souffle-flavoured concrete syntax.

    The original XChainWatcher ships its cross-chain rules as [.dl]
    files consumed by Souffle; this parser lets deployments of this
    library do the same — rules can be loaded from text at runtime
    instead of being compiled in, which is how operators are expected
    to fine-tune rules per bridge (paper Section 3.3).

    Grammar (per rule, terminated by [.]):

    {v
    rule    ::= atom [ ":-" body ] "."
    body    ::= literal { "," literal }
    literal ::= atom | "!" atom | expr cmp expr
    atom    ::= ident "(" term { "," term } ")"
    term    ::= ident | "_" | int | string
    expr    ::= prod { ("+" | "-") prod }
    prod    ::= prim { "*" prim }
    prim    ::= ident | int | string | "(" expr ")"
    cmp     ::= "<" | "<=" | ">" | ">=" | "=" | "!="
    v}

    Identifiers in argument position are variables; a lone [_] is an
    anonymous variable.  Line comments start with [//] or [#];
    block comments are [/* ... */].  The output of {!Ast.pp_rule} parses
    back to an alpha-equivalent rule. *)

exception Parse_error of { line : int; col : int; message : string }

let error ~line ~col message = raise (Parse_error { line; col; message })

(* ------------------------------------------------------------------ *)
(* Tokens                                                              *)

type token =
  | T_ident of string
  | T_int of int
  | T_string of string
  | T_lparen
  | T_rparen
  | T_comma
  | T_dot
  | T_turnstile (* :- *)
  | T_bang
  | T_underscore
  | T_plus
  | T_minus
  | T_star
  | T_lt
  | T_le
  | T_gt
  | T_ge
  | T_eq
  | T_ne
  | T_colon

type positioned = { tok : token; t_line : int; t_col : int }

(* The tokens, and the line and column just past the last character:
   where an end-of-input error points. *)
let tokenize (src : string) : positioned list * (int * int) =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let push tok t_line t_col = tokens := { tok; t_line; t_col } :: !tokens in
  let advance () =
    (if !i < n && src.[!i] = '\n' then begin
       incr line;
       col := 0
     end);
    incr i;
    incr col
  in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    let l0 = !line and c0 = !col in
    match c with
    | ' ' | '\t' | '\r' | '\n' -> advance ()
    | '/' when peek 1 = Some '/' ->
        while !i < n && src.[!i] <> '\n' do advance () done
    | '#' -> while !i < n && src.[!i] <> '\n' do advance () done
    | '/' when peek 1 = Some '*' ->
        advance (); advance ();
        let closed = ref false in
        while (not !closed) && !i < n do
          if src.[!i] = '*' && peek 1 = Some '/' then begin
            advance (); advance ();
            closed := true
          end
          else advance ()
        done;
        if not !closed then error ~line:l0 ~col:c0 "unterminated block comment"
    | '(' -> push T_lparen l0 c0; advance ()
    | ')' -> push T_rparen l0 c0; advance ()
    | ',' -> push T_comma l0 c0; advance ()
    | '.' -> push T_dot l0 c0; advance ()
    | '+' -> push T_plus l0 c0; advance ()
    | '-' -> push T_minus l0 c0; advance ()
    | '*' -> push T_star l0 c0; advance ()
    | ':' ->
        if peek 1 = Some '-' then begin
          push T_turnstile l0 c0; advance (); advance ()
        end
        else begin
          push T_colon l0 c0; advance ()
        end
    | '!' ->
        if peek 1 = Some '=' then begin
          push T_ne l0 c0; advance (); advance ()
        end
        else begin
          push T_bang l0 c0; advance ()
        end
    | '<' ->
        if peek 1 = Some '=' then begin
          push T_le l0 c0; advance (); advance ()
        end
        else begin
          push T_lt l0 c0; advance ()
        end
    | '>' ->
        if peek 1 = Some '=' then begin
          push T_ge l0 c0; advance (); advance ()
        end
        else begin
          push T_gt l0 c0; advance ()
        end
    | '=' -> push T_eq l0 c0; advance ()
    | '"' ->
        advance ();
        let buf = Buffer.create 16 in
        let closed = ref false in
        while (not !closed) && !i < n do
          match src.[!i] with
          | '"' ->
              advance ();
              closed := true
          | '\\' ->
              advance ();
              if !i < n then begin
                (match src.[!i] with
                | 'n' -> Buffer.add_char buf '\n'
                | 't' -> Buffer.add_char buf '\t'
                | 'r' -> Buffer.add_char buf '\r'
                | c -> Buffer.add_char buf c);
                advance ()
              end
          | c ->
              Buffer.add_char buf c;
              advance ()
        done;
        if not !closed then error ~line:l0 ~col:c0 "unterminated string";
        push (T_string (Buffer.contents buf)) l0 c0
    | '0' .. '9' ->
        let start = !i in
        while
          (match peek 0 with Some ('0' .. '9') -> true | _ -> false)
        do advance () done;
        push (T_int (int_of_string (String.sub src start (!i - start)))) l0 c0
    | ('a' .. 'z' | 'A' .. 'Z' | '_') ->
        let start = !i in
        while
          (match peek 0 with
          | Some ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') -> true
          | _ -> false)
        do advance () done;
        let s = String.sub src start (!i - start) in
        if s = "_" then push T_underscore l0 c0 else push (T_ident s) l0 c0
    | c -> error ~line:l0 ~col:c0 (Printf.sprintf "unexpected character %C" c)
  done;
  (List.rev !tokens, (!line, !col))

(* ------------------------------------------------------------------ *)
(* Recursive-descent parser                                            *)

type state = { mutable toks : positioned list; eof : int * int }

let peek_tok st = match st.toks with [] -> None | p :: _ -> Some p

let end_of_input st message =
  let line, col = st.eof in
  error ~line ~col message

let next_tok st =
  match st.toks with
  | [] -> end_of_input st "unexpected end of input"
  | p :: rest ->
      st.toks <- rest;
      p

let expect st tok what =
  let p = next_tok st in
  if p.tok <> tok then error ~line:p.t_line ~col:p.t_col ("expected " ^ what)

let fresh_wildcard =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "_p%d" !counter

let parse_term st : Ast.term =
  let p = next_tok st in
  match p.tok with
  | T_ident name -> Ast.Var name
  | T_underscore -> Ast.Var (fresh_wildcard ())
  | T_int n -> Ast.Const (Ast.Int n)
  | T_minus -> (
      let q = next_tok st in
      match q.tok with
      | T_int n -> Ast.Const (Ast.Int (-n))
      | _ -> error ~line:q.t_line ~col:q.t_col "expected integer after '-'")
  | T_string s ->
      (* Intern at parse time: rule constants get their symbol ids the
         moment the program text is read, before any fact load. *)
      ignore (Ast.Symtab.intern s);
      Ast.Const (Ast.Str s)
  | _ -> error ~line:p.t_line ~col:p.t_col "expected term"

let parse_atom_args st name : Ast.atom =
  expect st T_lparen "'('";
  let args = ref [ parse_term st ] in
  let rec loop () =
    match peek_tok st with
    | Some { tok = T_comma; _ } ->
        ignore (next_tok st);
        args := parse_term st :: !args;
        loop ()
    | _ -> ()
  in
  loop ();
  expect st T_rparen "')'";
  Ast.atom name (List.rev !args)

(* Expressions for comparison constraints. *)
let rec parse_expr st : Ast.expr =
  let lhs = parse_prod st in
  match peek_tok st with
  | Some { tok = T_plus; _ } ->
      ignore (next_tok st);
      Ast.E_add (lhs, parse_expr st)
  | Some { tok = T_minus; _ } ->
      ignore (next_tok st);
      Ast.E_sub (lhs, parse_expr st)
  | _ -> lhs

and parse_prod st : Ast.expr =
  let lhs = parse_prim st in
  match peek_tok st with
  | Some { tok = T_star; _ } ->
      ignore (next_tok st);
      Ast.E_mul (lhs, parse_prod st)
  | _ -> lhs

and parse_prim st : Ast.expr =
  let p = next_tok st in
  match p.tok with
  | T_ident name -> Ast.E_var name
  | T_int n -> Ast.E_const (Ast.Int n)
  | T_minus -> (
      let q = next_tok st in
      match q.tok with
      | T_int n -> Ast.E_const (Ast.Int (-n))
      | _ -> error ~line:q.t_line ~col:q.t_col "expected integer after '-'")
  | T_string s ->
      ignore (Ast.Symtab.intern s);
      Ast.E_const (Ast.Str s)
  | T_lparen ->
      let e = parse_expr st in
      expect st T_rparen "')'";
      e
  | _ -> error ~line:p.t_line ~col:p.t_col "expected expression"

let cmp_of_token = function
  | T_lt -> Some Ast.Lt
  | T_le -> Some Ast.Le
  | T_gt -> Some Ast.Gt
  | T_ge -> Some Ast.Ge
  | T_eq -> Some Ast.Eq
  | T_ne -> Some Ast.Ne
  | _ -> None

let parse_literal st : Ast.literal =
  match peek_tok st with
  | Some { tok = T_bang; _ } ->
      ignore (next_tok st);
      let p = next_tok st in
      (match p.tok with
      | T_ident name -> Ast.Neg (parse_atom_args st name)
      | _ -> error ~line:p.t_line ~col:p.t_col "expected atom after '!'")
  | Some { tok = T_ident name; _ } -> (
      (* Could be an atom [name(...)] or a comparison starting with a
         variable [name < ...]. *)
      ignore (next_tok st);
      match peek_tok st with
      | Some { tok = T_lparen; _ } -> Ast.Pos (parse_atom_args st name)
      | _ -> (
          (* Re-parse as an expression with [name] as its leftmost
             variable. *)
          let lhs =
            let base = Ast.E_var name in
            let rec extend acc =
              match peek_tok st with
              | Some { tok = T_plus; _ } ->
                  ignore (next_tok st);
                  extend (Ast.E_add (acc, parse_prod st))
              | Some { tok = T_minus; _ } ->
                  ignore (next_tok st);
                  extend (Ast.E_sub (acc, parse_prod st))
              | Some { tok = T_star; _ } ->
                  ignore (next_tok st);
                  extend (Ast.E_mul (acc, parse_prod st))
              | _ -> acc
            in
            extend base
          in
          let p = next_tok st in
          match cmp_of_token p.tok with
          | Some op -> Ast.Cmp (op, lhs, parse_expr st)
          | None ->
              error ~line:p.t_line ~col:p.t_col "expected comparison operator"))
  | Some _ -> (
      (* A comparison starting with a constant or parenthesis. *)
      let lhs = parse_expr st in
      let p = next_tok st in
      match cmp_of_token p.tok with
      | Some op -> Ast.Cmp (op, lhs, parse_expr st)
      | None -> error ~line:p.t_line ~col:p.t_col "expected comparison operator")
  | None -> end_of_input st "unexpected end of input in body"

let parse_rule_tokens st : Ast.rule =
  let p = next_tok st in
  let head =
    match p.tok with
    | T_ident name -> parse_atom_args st name
    | _ -> error ~line:p.t_line ~col:p.t_col "expected rule head"
  in
  match peek_tok st with
  | Some { tok = T_dot; _ } ->
      ignore (next_tok st);
      { Ast.head; body = [] }
  | Some { tok = T_turnstile; _ } ->
      ignore (next_tok st);
      let body = ref [ parse_literal st ] in
      let rec loop () =
        match peek_tok st with
        | Some { tok = T_comma; _ } ->
            ignore (next_tok st);
            body := parse_literal st :: !body;
            loop ()
        | _ -> ()
      in
      loop ();
      expect st T_dot "'.'";
      { Ast.head; body = List.rev !body }
  | Some p -> error ~line:p.t_line ~col:p.t_col "expected ':-' or '.'"
  | None -> end_of_input st "unexpected end of input"

(* Souffle directives (.decl/.input/.output) are accepted and skipped:
   declarations carry type information this engine infers from the
   data, and I/O directives are handled by the host program. *)
let skip_directive st =
  (* Consume ". ident" then, if an argument list follows, through its
     closing parenthesis. *)
  ignore (next_tok st) (* the dot *);
  let p = next_tok st in
  (match p.tok with
  | T_ident ("decl" | "input" | "output") -> ()
  | _ -> error ~line:p.t_line ~col:p.t_col "unknown directive");
  (* relation name *)
  let q = next_tok st in
  (match q.tok with
  | T_ident _ -> ()
  | _ -> error ~line:q.t_line ~col:q.t_col "expected relation name");
  match peek_tok st with
  | Some { tok = T_lparen; _ } ->
      let depth = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let p = next_tok st in
        (match p.tok with
        | T_lparen -> incr depth
        | T_rparen -> decr depth
        | _ -> ());
        if !depth = 0 then continue_ := false
      done
  | _ -> ()

(** Parse a whole program: a sequence of rules and body-less facts;
    Souffle [.decl]/[.input]/[.output] directives are skipped. *)
let parse_program (src : string) : Ast.rule list =
  let toks, eof = tokenize src in
  let st = { toks; eof } in
  let rules = ref [] in
  while st.toks <> [] do
    match st.toks with
    | { tok = T_dot; _ } :: { tok = T_ident ("decl" | "input" | "output"); _ } :: _ ->
        skip_directive st
    | _ -> rules := parse_rule_tokens st :: !rules
  done;
  List.rev !rules

(** Parse a single rule. *)
let parse_rule (src : string) : Ast.rule =
  match parse_program src with
  | [ r ] -> r
  | rs ->
      error ~line:0 ~col:0
        (Printf.sprintf "expected exactly one rule, found %d" (List.length rs))
