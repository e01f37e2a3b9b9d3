(* Datalog engine tests: joins, recursion (transitive closure),
   stratified negation, comparison built-ins, safety rejection, and the
   semi-naive ≡ naive equivalence property. *)

open Xcw_datalog
open Ast

let run_program ?naive facts rules =
  let db = Engine.create_db () in
  List.iter (fun (pred, tuple) -> Engine.add_fact db pred tuple) facts;
  ignore (Engine.run ?naive db { rules });
  db

let sorted_facts db pred = List.sort compare (Engine.facts db pred)

let tuple_list =
  Alcotest.testable
    (fun fmt l ->
      Format.fprintf fmt "%a"
        (Format.pp_print_list (fun f arr ->
             Format.fprintf f "(%a)"
               (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",") pp_const)
               (Array.to_list arr)))
        l)
    ( = )

(* ------------------------------------------------------------------ *)
(* Basic derivation                                                    *)

let simple_join =
  Alcotest.test_case "binary join" `Quick (fun () ->
      let facts =
        [
          ("parent", [ Str "a"; Str "b" ]);
          ("parent", [ Str "b"; Str "c" ]);
          ("parent", [ Str "x"; Str "y" ]);
        ]
      in
      let rules =
        [
          atom "grandparent" [ v "x"; v "z" ]
          <-- [ pos (atom "parent" [ v "x"; v "y" ]); pos (atom "parent" [ v "y"; v "z" ]) ];
        ]
      in
      let db = run_program facts rules in
      Alcotest.check tuple_list "grandparent"
        [ [| Str "a"; Str "c" |] ]
        (sorted_facts db "grandparent"))

let constants_in_body =
  Alcotest.test_case "constants filter in body atoms" `Quick (fun () ->
      let facts =
        [ ("edge", [ Str "a"; Int 1 ]); ("edge", [ Str "b"; Int 2 ]) ]
      in
      let rules =
        [ atom "one" [ v "x" ] <-- [ pos (atom "edge" [ v "x"; i 1 ]) ] ]
      in
      let db = run_program facts rules in
      Alcotest.check tuple_list "one" [ [| Str "a" |] ] (sorted_facts db "one"))

let transitive_closure =
  Alcotest.test_case "recursive transitive closure" `Quick (fun () ->
      let facts =
        [
          ("edge", [ Str "a"; Str "b" ]);
          ("edge", [ Str "b"; Str "c" ]);
          ("edge", [ Str "c"; Str "d" ]);
        ]
      in
      let rules =
        [
          atom "path" [ v "x"; v "y" ] <-- [ pos (atom "edge" [ v "x"; v "y" ]) ];
          atom "path" [ v "x"; v "z" ]
          <-- [ pos (atom "edge" [ v "x"; v "y" ]); pos (atom "path" [ v "y"; v "z" ]) ];
        ]
      in
      let db = run_program facts rules in
      Alcotest.(check int) "6 paths" 6 (List.length (Engine.facts db "path")))

let negation_difference =
  Alcotest.test_case "stratified negation computes set difference" `Quick
    (fun () ->
      let facts =
        [
          ("all", [ Str "a" ]);
          ("all", [ Str "b" ]);
          ("all", [ Str "c" ]);
          ("bad", [ Str "b" ]);
        ]
      in
      let rules =
        [
          atom "good" [ v "x" ]
          <-- [ pos (atom "all" [ v "x" ]); neg (atom "bad" [ v "x" ]) ];
        ]
      in
      let db = run_program facts rules in
      Alcotest.check tuple_list "good"
        [ [| Str "a" |]; [| Str "c" |] ]
        (sorted_facts db "good"))

let negation_of_derived =
  Alcotest.test_case "negation of a derived predicate (two strata)" `Quick
    (fun () ->
      let facts =
        [
          ("deposit", [ Str "tx1"; Int 100 ]);
          ("deposit", [ Str "tx2"; Int 200 ]);
          ("claim", [ Str "tx1" ]);
        ]
      in
      let rules =
        [
          (* matched txs, then unmatched = deposits with no claim;
             mirrors the paper's "unmatched events" analysis. *)
          atom "matched" [ v "t" ]
          <-- [ pos (atom "deposit" [ v "t"; any () ]); pos (atom "claim" [ v "t" ]) ];
          atom "unmatched" [ v "t" ]
          <-- [ pos (atom "deposit" [ v "t"; any () ]); neg (atom "matched" [ v "t" ]) ];
        ]
      in
      let db = run_program facts rules in
      Alcotest.check tuple_list "unmatched" [ [| Str "tx2" |] ]
        (sorted_facts db "unmatched"))

let arithmetic_comparison =
  Alcotest.test_case "comparison with arithmetic (finality rule shape)" `Quick
    (fun () ->
      (* src_ts + finality <= dst_ts, as in CCTX_ValidDeposit. *)
      let facts =
        [
          ("src_evt", [ Str "d1"; Int 1000 ]);
          ("src_evt", [ Str "d2"; Int 2000 ]);
          ("dst_evt", [ Str "d1"; Int 3000 ]);
          ("dst_evt", [ Str "d2"; Int 2050 ]);
          ("finality", [ Int 1800 ]);
        ]
      in
      let rules =
        [
          atom "valid" [ v "id" ]
          <-- [
                pos (atom "src_evt" [ v "id"; v "ts1" ]);
                pos (atom "dst_evt" [ v "id"; v "ts2" ]);
                pos (atom "finality" [ v "f" ]);
                ev "ts1" +! ev "f" <=! ev "ts2";
              ];
        ]
      in
      let db = run_program facts rules in
      Alcotest.check tuple_list "valid" [ [| Str "d1" |] ] (sorted_facts db "valid"))

let string_inequality =
  Alcotest.test_case "string equality/inequality constraints" `Quick (fun () ->
      let facts =
        [ ("p", [ Str "a"; Str "a" ]); ("p", [ Str "a"; Str "b" ]) ]
      in
      let rules =
        [
          atom "same" [ v "x"; v "y" ]
          <-- [ pos (atom "p" [ v "x"; v "y" ]); ev "x" =! ev "y" ];
          atom "diff" [ v "x"; v "y" ]
          <-- [ pos (atom "p" [ v "x"; v "y" ]); ev "x" <>! ev "y" ];
        ]
      in
      let db = run_program facts rules in
      Alcotest.(check int) "same" 1 (List.length (Engine.facts db "same"));
      Alcotest.(check int) "diff" 1 (List.length (Engine.facts db "diff")))

let event_ordering_rule =
  Alcotest.test_case "event index ordering (rule check 6 shape)" `Quick
    (fun () ->
      let facts =
        [
          (* (tx, bridge_evt_idx) and (tx, token_evt_idx) *)
          ("bridge_evt", [ Str "t1"; Int 2 ]);
          ("token_evt", [ Str "t1"; Int 1 ]);
          ("bridge_evt", [ Str "t2"; Int 1 ]);
          ("token_evt", [ Str "t2"; Int 2 ]);
        ]
      in
      let rules =
        [
          atom "ordered" [ v "t" ]
          <-- [
                pos (atom "bridge_evt" [ v "t"; v "bi" ]);
                pos (atom "token_evt" [ v "t"; v "ti" ]);
                ev "bi" >! ev "ti";
              ];
        ]
      in
      let db = run_program facts rules in
      Alcotest.check tuple_list "ordered" [ [| Str "t1" |] ] (sorted_facts db "ordered"))

let repeated_variable_in_atom =
  Alcotest.test_case "repeated variable matches only the diagonal" `Quick
    (fun () ->
      let facts =
        [
          ("p", [ Str "a"; Str "a" ]);
          ("p", [ Str "a"; Str "b" ]);
          ("p", [ Str "b"; Str "b" ]);
        ]
      in
      let rules =
        [ atom "diag" [ v "x" ] <-- [ pos (atom "p" [ v "x"; v "x" ]) ] ]
      in
      let db = run_program facts rules in
      Alcotest.check tuple_list "diag"
        [ [| Str "a" |]; [| Str "b" |] ]
        (sorted_facts db "diag"))

let constants_in_negation =
  Alcotest.test_case "negated atoms may mix constants and bound vars" `Quick
    (fun () ->
      let facts =
        [
          ("node", [ Str "a" ]);
          ("node", [ Str "b" ]);
          ("tag", [ Str "a"; Int 1 ]);
        ]
      in
      let rules =
        [
          atom "untagged1" [ v "x" ]
          <-- [ pos (atom "node" [ v "x" ]); neg (atom "tag" [ v "x"; i 1 ]) ];
        ]
      in
      let db = run_program facts rules in
      Alcotest.check tuple_list "untagged1" [ [| Str "b" |] ]
        (sorted_facts db "untagged1"))

let backtracking_restores_bindings =
  Alcotest.test_case "failed branches do not leak bindings" `Quick (fun () ->
      (* A join where the first candidate for the second literal fails
         and a later one succeeds: if the trail rollback were broken,
         stale bindings would block the later match. *)
      let facts =
        [
          ("edge", [ Str "a"; Str "b" ]);
          ("edge", [ Str "a"; Str "c" ]);
          ("goal", [ Str "c" ]);
        ]
      in
      let rules =
        [
          atom "reaches_goal" [ v "x" ]
          <-- [ pos (atom "edge" [ v "x"; v "y" ]); pos (atom "goal" [ v "y" ]) ];
        ]
      in
      let db = run_program facts rules in
      Alcotest.check tuple_list "reaches" [ [| Str "a" |] ]
        (sorted_facts db "reaches_goal"))

let head_constants =
  Alcotest.test_case "constants in rule heads" `Quick (fun () ->
      let facts = [ ("p", [ Str "a" ]) ] in
      let rules =
        [ atom "labeled" [ v "x"; s "found"; i 7 ] <-- [ pos (atom "p" [ v "x" ]) ] ]
      in
      let db = run_program facts rules in
      Alcotest.check tuple_list "labeled"
        [ [| Str "a"; Str "found"; Int 7 |] ]
        (sorted_facts db "labeled"))

let duplicate_rule_results_deduplicated =
  Alcotest.test_case "duplicate derivations collapse to one tuple" `Quick
    (fun () ->
      let facts =
        [ ("p", [ Str "a"; Int 1 ]); ("p", [ Str "a"; Int 2 ]) ]
      in
      let rules =
        [ atom "q" [ v "x" ] <-- [ pos (atom "p" [ v "x"; any () ]) ] ]
      in
      let db = run_program facts rules in
      Alcotest.(check int) "one tuple" 1 (Engine.fact_count db "q"))

let dump_facts_roundtrip =
  Alcotest.test_case "dump_facts writes one TSV line per tuple" `Quick
    (fun () ->
      let db = run_program
          [ ("edge", [ Str "a"; Int 1 ]); ("edge", [ Str "b"; Int 2 ]) ]
          [ atom "n" [ v "x" ] <-- [ pos (atom "edge" [ v "x"; any () ]) ] ]
      in
      let dir = Filename.concat (Filename.get_temp_dir_name ()) "xcw-facts-test" in
      Engine.dump_facts db ~dir;
      let lines path =
        let ic = open_in path in
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file ->
              close_in ic;
              List.rev acc
        in
        go []
      in
      let edges = lines (Filename.concat dir "edge.facts") in
      Alcotest.(check int) "2 edge rows" 2 (List.length edges);
      Alcotest.(check bool) "tab separated" true
        (List.for_all (fun l -> String.contains l '\t') edges);
      let nodes = lines (Filename.concat dir "n.facts") in
      Alcotest.(check int) "derived relation dumped too" 2 (List.length nodes))

let dump_facts_escapes_and_mkdirs =
  Alcotest.test_case "dump_facts escapes TSV metacharacters, creates parents"
    `Quick (fun () ->
      (* A tab or newline inside a string constant must not corrupt the
         Souffle TSV framing: every tuple stays on one line with
         exactly arity-1 unescaped tabs. *)
      let db = Engine.create_db () in
      Engine.add_fact db "memo" [ Str "with\ttab"; Str "with\nnewline" ];
      Engine.add_fact db "memo" [ Str "back\\slash"; Str "plain" ];
      let dir =
        Filename.concat
          (Filename.concat (Filename.get_temp_dir_name ()) "xcw-esc-test")
          "nested/deeper"
      in
      Engine.dump_facts db ~dir;
      let ic = open_in (Filename.concat dir "memo.facts") in
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      let lines = go [] in
      Alcotest.(check int) "one line per tuple" 2 (List.length lines);
      List.iter
        (fun l ->
          let tabs = String.fold_left (fun n c -> if c = '\t' then n + 1 else n) 0 l in
          Alcotest.(check int) "exactly one field separator" 1 tabs)
        lines;
      Alcotest.(check bool) "tab escaped" true
        (List.exists
           (fun l -> String.length l >= 2 && String.sub l 0 4 = "with")
           lines))

(* ------------------------------------------------------------------ *)
(* Incremental evaluation                                              *)

(* Transitive closure, shared with the property tests below. *)
let tc_rules =
  [
    atom "path" [ v "x"; v "y" ] <-- [ pos (atom "edge" [ v "x"; v "y" ]) ];
    atom "path" [ v "x"; v "z" ]
    <-- [ pos (atom "edge" [ v "x"; v "y" ]); pos (atom "path" [ v "y"; v "z" ]) ];
  ]

let edges_to_facts edges =
  List.map (fun (a, b) -> ("edge", [ Int a; Int b ])) edges

let incremental_inserts_recursive =
  Alcotest.test_case "run_incremental extends a recursive closure" `Quick
    (fun () ->
      (* Feed the edge relation in three batches through one persistent
         db; the final closure must equal a from-scratch run. *)
      let db = Engine.create_db () in
      let plan = Engine.prepare { rules = tc_rules } in
      let batches =
        [
          [ (1, 2); (2, 3) ];
          [ (3, 4) ];
          [ (0, 1); (4, 5) ];
        ]
      in
      List.iter
        (fun batch ->
          List.iter
            (fun (a, b) -> ignore (Engine.insert_fact db "edge" [ Int a; Int b ]))
            batch;
          ignore (Engine.run_incremental plan db))
        batches;
      let reference =
        run_program (edges_to_facts (List.concat batches)) tc_rules
      in
      Alcotest.check tuple_list "same closure"
        (sorted_facts reference "path")
        (sorted_facts db "path"))

let incremental_retracts_nonmonotonic =
  Alcotest.test_case "run_incremental retracts stale negation-derived tuples"
    `Quick (fun () ->
      (* unmatched(x) :- req(x), !ack(x).  Adding ack(a) later must
         REMOVE unmatched(a) — the non-monotonic case a pure delta pass
         cannot handle; the engine re-derives the relation in place. *)
      let rules =
        [
          atom "unmatched" [ v "x" ]
          <-- [ pos (atom "req" [ v "x" ]); neg (atom "ack" [ v "x" ]) ];
        ]
      in
      let db = Engine.create_db () in
      let plan = Engine.prepare { rules } in
      ignore (Engine.insert_fact db "req" [ Str "a" ]);
      ignore (Engine.insert_fact db "req" [ Str "b" ]);
      ignore (Engine.run_incremental plan db);
      Alcotest.check tuple_list "both unmatched initially"
        [ [| Str "a" |]; [| Str "b" |] ]
        (sorted_facts db "unmatched");
      ignore (Engine.insert_fact db "ack" [ Str "a" ]);
      ignore (Engine.run_incremental plan db);
      Alcotest.check tuple_list "a retracted after its ack arrives"
        [ [| Str "b" |] ]
        (sorted_facts db "unmatched");
      (* EDB relations must survive the retraction pass untouched. *)
      Alcotest.(check int) "req preserved" 2 (Engine.fact_count db "req"))

let incremental_skips_unchanged_strata =
  Alcotest.test_case "run_incremental leaves untouched strata alone" `Quick
    (fun () ->
      (* Two independent strata; facts added only to the first must not
         re-evaluate the second's rule. *)
      let rules =
        [
          atom "q" [ v "x" ] <-- [ pos (atom "p" [ v "x" ]) ];
          atom "t" [ v "x" ] <-- [ pos (atom "s" [ v "x" ]) ];
        ]
      in
      let db = Engine.create_db () in
      let plan = Engine.prepare { rules } in
      ignore (Engine.insert_fact db "p" [ Str "a" ]);
      ignore (Engine.insert_fact db "s" [ Str "z" ]);
      ignore (Engine.run_incremental plan db);
      ignore (Engine.insert_fact db "p" [ Str "b" ]);
      let stats, _ = Engine.run_incremental plan db in
      Alcotest.(check int) "only p's stratum ran" 1 stats.Engine.rules_evaluated;
      Alcotest.check tuple_list "q extended"
        [ [| Str "a" |]; [| Str "b" |] ]
        (sorted_facts db "q");
      Alcotest.check tuple_list "t intact" [ [| Str "z" |] ]
        (sorted_facts db "t");
      (* A no-op increment does no work at all. *)
      let stats2, _ = Engine.run_incremental plan db in
      Alcotest.(check int) "idle poll evaluates nothing" 0
        stats2.Engine.rules_evaluated)

let plan_outlives_its_database =
  Alcotest.test_case
    "one plan over two databases: the second reads only its own relations"
    `Quick (fun () ->
      (* A plan's compiled rules cache each atom's relation per database
         generation.  Database B creates the same relations as A, in the
         same order, so per-database generation counts would line up and
         B's run would read A's relations. *)
      let plan = Engine.prepare { rules = tc_rules } in
      let small = [ (1, 2); (2, 3) ] in
      let large = small @ [ (3, 4); (4, 5); (5, 6) ] in
      let load edges =
        let db = Engine.create_db () in
        List.iter
          (fun (a, b) -> ignore (Engine.insert_fact db "edge" [ Int a; Int b ]))
          edges;
        db
      in
      let a = load small in
      ignore (Engine.run_incremental plan a);
      let b = load large in
      ignore (Engine.run_incremental plan b);
      let reference = run_program (edges_to_facts large) tc_rules in
      Alcotest.check tuple_list "B's closure = a fresh run's"
        (sorted_facts reference "path")
        (sorted_facts b "path");
      Alcotest.check tuple_list "A's closure is untouched"
        (sorted_facts (run_program (edges_to_facts small) tc_rules) "path")
        (sorted_facts a "path"))

let derived_predicates_tracked =
  Alcotest.test_case "derived vs EDB predicates are distinguished" `Quick
    (fun () ->
      let db = Engine.create_db () in
      ignore (Engine.insert_fact db "p" [ Str "a" ]);
      ignore
        (Engine.run db { rules = [ atom "q" [ v "x" ] <-- [ pos (atom "p" [ v "x" ]) ] ] });
      Alcotest.(check (list string)) "only q is derived" [ "q" ]
        (Engine.derived_predicates db))

(* ------------------------------------------------------------------ *)
(* Error handling                                                      *)

let unsafe_head_rejected =
  Alcotest.test_case "unsafe head variable rejected" `Quick (fun () ->
      let rules = [ atom "q" [ v "x" ] <-- [ neg (atom "p" [ v "x" ]) ] ] in
      try
        ignore (run_program [ ("p", [ Str "a" ]) ] rules);
        Alcotest.fail "expected Unsafe_rule"
      with Engine.Unsafe_rule _ -> ())

let unstratifiable_rejected =
  Alcotest.test_case "negation cycle rejected" `Quick (fun () ->
      let rules =
        [
          atom "p" [ v "x" ]
          <-- [ pos (atom "base" [ v "x" ]); neg (atom "q" [ v "x" ]) ];
          atom "q" [ v "x" ]
          <-- [ pos (atom "base" [ v "x" ]); neg (atom "p" [ v "x" ]) ];
        ]
      in
      try
        ignore (run_program [ ("base", [ Str "a" ]) ] rules);
        Alcotest.fail "expected Not_stratifiable"
      with Engine.Not_stratifiable _ -> ())

let arity_mismatch_rejected =
  Alcotest.test_case "relation arity mismatch rejected" `Quick (fun () ->
      let db = Engine.create_db () in
      Engine.add_fact db "p" [ Str "a" ];
      try
        Engine.add_fact db "p" [ Str "a"; Str "b" ];
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

(* Random edge relations; check semi-naive and naive agree on
   transitive closure, and that the closure is actually transitive. *)
let gen_edges =
  QCheck.Gen.(list_size (0 -- 40) (pair (int_bound 12) (int_bound 12)))

let prop_seminaive_equals_naive =
  QCheck.Test.make ~name:"semi-naive = naive on random graphs" ~count:(Xcw_testlib.qcount 60)
    (QCheck.make gen_edges)
    (fun edges ->
      let facts = edges_to_facts edges in
      let db1 = run_program facts tc_rules in
      let db2 = run_program ~naive:true facts tc_rules in
      sorted_facts db1 "path" = sorted_facts db2 "path")

let prop_closure_transitive =
  QCheck.Test.make ~name:"derived path relation is transitively closed"
    ~count:(Xcw_testlib.qcount 60)
    (QCheck.make gen_edges)
    (fun edges ->
      let db = run_program (edges_to_facts edges) tc_rules in
      let paths = Engine.facts db "path" in
      let mem a b = List.exists (fun t -> t = [| Int a; Int b |]) paths in
      List.for_all
        (fun t ->
          match t with
          | [| Int a; Int b |] ->
              List.for_all
                (fun t2 ->
                  match t2 with
                  | [| Int b'; Int c |] -> b <> b' || mem a c
                  | _ -> true)
                paths
          | _ -> true)
        paths)

let prop_monotone =
  QCheck.Test.make ~name:"adding facts never removes derived tuples" ~count:(Xcw_testlib.qcount 60)
    (QCheck.pair (QCheck.make gen_edges) (QCheck.make gen_edges))
    (fun (e1, e2) ->
      let db1 = run_program (edges_to_facts e1) tc_rules in
      let db2 = run_program (edges_to_facts (e1 @ e2)) tc_rules in
      let p1 = sorted_facts db1 "path" and p2 = sorted_facts db2 "path" in
      List.for_all (fun t -> List.mem t p2) p1)

let prop_incremental_equals_batch =
  QCheck.Test.make
    ~name:"incremental batches = one-shot run on random graphs" ~count:(Xcw_testlib.qcount 60)
    (QCheck.pair (QCheck.make gen_edges) (QCheck.make gen_edges))
    (fun (e1, e2) ->
      let db = Engine.create_db () in
      let plan = Engine.prepare { rules = tc_rules } in
      List.iter
        (fun (p, t) -> ignore (Engine.insert_fact db p t))
        (edges_to_facts e1);
      ignore (Engine.run_incremental plan db);
      List.iter
        (fun (p, t) -> ignore (Engine.insert_fact db p t))
        (edges_to_facts e2);
      ignore (Engine.run_incremental plan db);
      let reference = run_program (edges_to_facts (e1 @ e2)) tc_rules in
      sorted_facts db "path" = sorted_facts reference "path")

let prop_idempotent =
  QCheck.Test.make ~name:"running rules twice adds nothing new" ~count:(Xcw_testlib.qcount 60)
    (QCheck.make gen_edges)
    (fun edges ->
      let db = Engine.create_db () in
      List.iter (fun (p, t) -> Engine.add_fact db p t) (edges_to_facts edges);
      ignore (Engine.run db { rules = tc_rules });
      let n1 = Engine.fact_count db "path" in
      let stats = Engine.run db { rules = tc_rules } in
      let n2 = Engine.fact_count db "path" in
      n1 = n2 && stats.Engine.tuples_derived = 0)

let () =
  Alcotest.run "datalog"
    [
      ( "evaluation",
        [
          simple_join;
          constants_in_body;
          transitive_closure;
          negation_difference;
          negation_of_derived;
          arithmetic_comparison;
          string_inequality;
          event_ordering_rule;
          repeated_variable_in_atom;
          constants_in_negation;
          backtracking_restores_bindings;
          head_constants;
          duplicate_rule_results_deduplicated;
          dump_facts_roundtrip;
          dump_facts_escapes_and_mkdirs;
        ] );
      ( "incremental",
        [
          incremental_inserts_recursive;
          incremental_retracts_nonmonotonic;
          incremental_skips_unchanged_strata;
          derived_predicates_tracked;
          plan_outlives_its_database;
        ] );
      ( "errors",
        [ unsafe_head_rejected; unstratifiable_rejected; arity_mismatch_rejected ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_seminaive_equals_naive;
            prop_closure_transitive;
            prop_monotone;
            prop_idempotent;
            prop_incremental_equals_batch;
          ] );
    ]
