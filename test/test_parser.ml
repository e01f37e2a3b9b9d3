(* Tests for the Souffle-flavoured rule parser, including the
   round-trip property: every compiled-in cross-chain rule pretty-prints
   to text that parses back to an equivalent rule. *)

open Xcw_datalog
open Ast

let parse = Parser.parse_rule

let rule_testable =
  Alcotest.testable pp_rule ( = )

let simple_rule =
  Alcotest.test_case "parse a simple join rule" `Quick (fun () ->
      let r = parse "grandparent(x, z) :- parent(x, y), parent(y, z)." in
      Alcotest.check rule_testable "rule"
        (atom "grandparent" [ v "x"; v "z" ]
        <-- [ pos (atom "parent" [ v "x"; v "y" ]); pos (atom "parent" [ v "y"; v "z" ]) ])
        r)

let fact_rule =
  Alcotest.test_case "parse a body-less fact" `Quick (fun () ->
      let r = parse {|edge("a", 42).|} in
      Alcotest.check rule_testable "fact"
        (atom "edge" [ s "a"; i 42 ] <-- [])
        r)

let negation_rule =
  Alcotest.test_case "parse negation" `Quick (fun () ->
      let r = parse "orphan(x) :- node(x), !parent(_, x)." in
      match r.body with
      | [ Pos _; Neg { pred = "parent"; args = [ Var w; Var "x" ] } ] ->
          Alcotest.(check bool) "wildcard got a fresh name" true
            (String.length w > 1 && w.[0] = '_')
      | _ -> Alcotest.fail "unexpected shape")

let comparison_rule =
  Alcotest.test_case "parse arithmetic comparison" `Quick (fun () ->
      let r = parse "ok(x) :- evt(x, t1, t2), t1 + 1800 <= t2." in
      match r.body with
      | [ Pos _; Cmp (Le, E_add (E_var "t1", E_const (Int 1800)), E_var "t2") ] -> ()
      | _ -> Alcotest.fail "unexpected comparison shape")

let string_comparison =
  Alcotest.test_case "parse string (in)equality" `Quick (fun () ->
      let r = parse {|diff(x) :- p(x, y), x != y, y != "0x0".|} in
      match r.body with
      | [ Pos _; Cmp (Ne, E_var "x", E_var "y");
          Cmp (Ne, E_var "y", E_const (Str "0x0")) ] -> ()
      | _ -> Alcotest.fail "unexpected shape")

let negative_int =
  Alcotest.test_case "parse negative integers" `Quick (fun () ->
      let r = parse "cold(x) :- temp(x, t), t < -10." in
      match r.body with
      | [ Pos _; Cmp (Lt, E_var "t", E_const (Int -10)) ] -> ()
      | _ -> Alcotest.fail "unexpected shape")

let comments_ignored =
  Alcotest.test_case "comments and whitespace are ignored" `Quick (fun () ->
      let src =
        "// line comment\n\
         # hash comment\n\
         p(x) :- /* block\n\
         comment */ q(x).  // trailing"
      in
      Alcotest.check rule_testable "rule"
        (atom "p" [ v "x" ] <-- [ pos (atom "q" [ v "x" ]) ])
        (parse src))

let directives_skipped =
  Alcotest.test_case ".decl/.input/.output directives are skipped" `Quick
    (fun () ->
      let rules =
        Parser.parse_program
          ".decl edge(x: symbol, y: number)\n\
           .input edge\n\
           .output path\n\
           path(x, y) :- edge(x, y)."
      in
      Alcotest.(check int) "one rule" 1 (List.length rules))

let multi_rule_program =
  Alcotest.test_case "parse a multi-rule program" `Quick (fun () ->
      let rules =
        Parser.parse_program
          "path(x, y) :- edge(x, y).\n\
           path(x, z) :- edge(x, y), path(y, z).\n"
      in
      Alcotest.(check int) "two rules" 2 (List.length rules))

let parse_error_reports_position =
  Alcotest.test_case "syntax errors carry line/column" `Quick (fun () ->
      try
        ignore (parse "p(x :- q(x).");
        Alcotest.fail "expected Parse_error"
      with Parser.Parse_error { line; _ } ->
        Alcotest.(check int) "line 1" 1 line)

(* Input that ends mid-rule, mid-body or mid-declaration points at
   where it ended (just past the last character), not at 0:0. *)
let end_of_input_position =
  Alcotest.test_case "end-of-input errors point where the input ended"
    `Quick (fun () ->
      List.iter
        (fun (src, want) ->
          match Parser.parse_program src with
          | _ -> Alcotest.failf "expected Parse_error for %S" src
          | exception Parser.Parse_error { line; col; _ } ->
              Alcotest.(check (pair int int))
                (Printf.sprintf "position for %S" src)
                want (line, col))
        [
          ("p(x) :- q(x", (1, 12));
          ("p(x) :-", (1, 8));
          ("p(x) :- q(x).\np(x)", (2, 5));
          ("p(x).\n.decl q(x: symbol,\n", (3, 1));
        ])

let unterminated_string_rejected =
  Alcotest.test_case "unterminated strings rejected" `Quick (fun () ->
      try
        ignore (parse {|p("oops) :- q(x).|});
        Alcotest.fail "expected Parse_error"
      with Parser.Parse_error _ -> ())

(* Alpha-equivalence: compare rules after canonically renaming
   variables in first-occurrence order. *)
let canonicalize (r : rule) : rule =
  let mapping = Hashtbl.create 16 in
  let counter = ref 0 in
  let rename v =
    match Hashtbl.find_opt mapping v with
    | Some v' -> v'
    | None ->
        incr counter;
        let v' = Printf.sprintf "v%d" !counter in
        Hashtbl.replace mapping v v';
        v'
  in
  let term = function Var v -> Var (rename v) | c -> c in
  let rec expr = function
    | E_var v -> E_var (rename v)
    | E_const c -> E_const c
    | E_add (a, b) -> E_add (expr a, expr b)
    | E_sub (a, b) -> E_sub (expr a, expr b)
    | E_mul (a, b) -> E_mul (expr a, expr b)
  in
  let atom a = { a with args = List.map term a.args } in
  (* Rename in body-first order so head vars follow their binding
     occurrences, then the head. *)
  let body =
    List.map
      (function
        | Pos a -> Pos (atom a)
        | Neg a -> Neg (atom a)
        | Cmp (op, a, b) -> Cmp (op, expr a, expr b))
      r.body
  in
  { head = atom r.head; body }

let roundtrip_all_cross_chain_rules =
  Alcotest.test_case "every cross-chain rule round-trips through the parser"
    `Quick (fun () ->
      List.iter
        (fun rule ->
          let printed = Format.asprintf "%a" pp_rule rule in
          let reparsed =
            try parse printed
            with Parser.Parse_error { line; col; message } ->
              Alcotest.fail
                (Printf.sprintf "parse failed at %d:%d (%s) in:\n%s" line col
                   message printed)
          in
          Alcotest.check rule_testable
            (Printf.sprintf "round-trip of %s" rule.head.pred)
            (canonicalize rule) (canonicalize reparsed))
        Xcw_core.Rules.all_rules)

let parsed_rules_evaluate_identically =
  Alcotest.test_case "parsed rules derive the same tuples as compiled ones"
    `Quick (fun () ->
      let source =
        "path(x, y) :- edge(x, y).\n\
         path(x, z) :- edge(x, y), path(y, z).\n\
         long(x, z) :- path(x, z), x + 2 <= z."
      in
      let parsed = Parser.parse_program source in
      let compiled =
        [
          atom "path" [ v "x"; v "y" ] <-- [ pos (atom "edge" [ v "x"; v "y" ]) ];
          atom "path" [ v "x"; v "z" ]
          <-- [ pos (atom "edge" [ v "x"; v "y" ]); pos (atom "path" [ v "y"; v "z" ]) ];
          atom "long" [ v "x"; v "z" ]
          <-- [ pos (atom "path" [ v "x"; v "z" ]); ev "x" +! eint 2 <=! ev "z" ];
        ]
      in
      let run rules =
        let db = Engine.create_db () in
        for k = 0 to 5 do
          Engine.add_fact db "edge" [ Int k; Int (k + 1) ]
        done;
        ignore (Engine.run db { rules });
        (List.sort compare (Engine.facts db "path"),
         List.sort compare (Engine.facts db "long"))
      in
      Alcotest.(check bool) "identical derivations" true (run parsed = run compiled))

let prop_roundtrip_random_rules =
  (* Random rules built from a small vocabulary; checks
     parse(pp(r)) == r up to alpha-equivalence. *)
  let gen_rule =
    let open QCheck.Gen in
    let var = oneofl [ "x"; "y"; "z"; "w" ] in
    let term =
      oneof
        [
          map (fun v -> Var v) var;
          map (fun n -> Const (Int n)) (int_range 0 999);
          map (fun s -> Const (Str s)) (oneofl [ "a"; "b"; "0xdead" ]);
        ]
    in
    let atom_gen =
      map2
        (fun name args -> atom name args)
        (oneofl [ "p"; "q"; "r" ])
        (list_size (1 -- 3) term)
    in
    let cmp_gen =
      map2
        (fun (op, a) b -> Cmp (op, E_var a, E_const (Int b)))
        (pair (oneofl [ Lt; Le; Gt; Ge; Eq; Ne ]) var)
        (int_range 0 99)
    in
    (* Head vars must be bound: build the head from vars of the first
       positive atom. *)
    atom_gen >>= fun first ->
    list_size (0 -- 2) (oneof [ map (fun a -> Pos a) atom_gen; cmp_gen ])
    >>= fun rest ->
    let head_args =
      List.filter_map (function Var v -> Some (Var v) | _ -> None) first.args
    in
    let head_args = if head_args = [] then [ Const (Int 0) ] else head_args in
    (* Comparisons must use bound vars only: restrict to vars of first. *)
    let bound =
      List.filter_map (function Var v -> Some v | _ -> None) first.args
    in
    let rest =
      List.filter
        (function
          | Cmp (_, E_var v, _) -> List.mem v bound
          | _ -> true)
        rest
    in
    return (atom "h" head_args <-- (pos first :: rest))
  in
  QCheck.Test.make ~name:"random rules round-trip" ~count:200
    (QCheck.make ~print:(Format.asprintf "%a" pp_rule) gen_rule)
    (fun r ->
      let printed = Format.asprintf "%a" pp_rule r in
      canonicalize (parse printed) = canonicalize r)

let () =
  Alcotest.run "parser"
    [
      ( "syntax",
        [
          simple_rule;
          fact_rule;
          negation_rule;
          comparison_rule;
          string_comparison;
          negative_int;
          comments_ignored;
          directives_skipped;
          multi_rule_program;
          parse_error_reports_position;
          end_of_input_position;
          unterminated_string_rejected;
        ] );
      ( "round-trip",
        [
          roundtrip_all_cross_chain_rules;
          parsed_rules_evaluate_identically;
          QCheck_alcotest.to_alcotest prop_roundtrip_random_rules;
        ] );
    ]
