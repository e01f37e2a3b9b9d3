(* Regression net for the interned, columnar tuple representation.

   The engine packs every constant into an interned int
   ([Ast.packed]) and joins over [int array] tuples.  This suite pins
   the properties that representation must preserve:

   - packing is lossless and the symbol table canonical (same string,
     same id — packed equality is structural equality);
   - output byte-stability does not depend on fact insertion order
     (Hashtbl iteration order must never leak into dump_facts, facts,
     or reports);
   - the shard hash spreads interned keys evenly — raw packed ints are
     all-odd (strings) or all-even (small ints), exactly the shape a
     low-bit mask degrades on;
   - symbol ids are stable across incremental polls and reorg rewinds,
     so a rewind + re-derive yields byte-identical reports;
   - differentially: the engine agrees with the naive reference
     evaluator ([Naive]) on random programs — same relations, same
     derived counts — at every worker count. *)

open Xcw_datalog
open Ast
module U256 = Xcw_uint256.Uint256
module Fault = Xcw_rpc.Fault
module Facts = Xcw_core.Facts
module Detector = Xcw_core.Detector
module Monitor = Xcw_core.Monitor
module Report = Xcw_core.Report
module T = Xcw_testlib

let u = U256.of_int
let qcount = T.qcount

(* ------------------------------------------------------------------ *)
(* Packing and symbol-table basics                                     *)

let pack_roundtrip =
  Alcotest.test_case "pack/unpack is the identity on consts" `Quick (fun () ->
      let consts =
        [
          Int 0; Int 1; Int (-1); Int 123_456_789; Int (-987_654);
          Int max_packed_int; Int (-max_packed_int); Str ""; Str "0x00";
          Str "hello\tworld"; Str (String.make 100 'x');
        ]
      in
      List.iter
        (fun c ->
          let p = pack c in
          let label = Format.asprintf "%a" pp_const c in
          if unpack p <> c then Alcotest.failf "roundtrip failed for %s" label;
          Alcotest.(check bool) (label ^ " tag")
            (match c with Int _ -> true | Str _ -> false)
            (packed_is_int p))
        consts;
      (match pack_int (max_packed_int + 1) with
      | _ -> Alcotest.fail "expected Invalid_argument above max_packed_int"
      | exception Invalid_argument _ -> ());
      match pack_int (-max_packed_int - 1) with
      | _ -> Alcotest.fail "expected Invalid_argument below -max_packed_int"
      | exception Invalid_argument _ -> ())

let symtab_canonical =
  Alcotest.test_case "interning is canonical: same string, same id" `Quick
    (fun () ->
      let a = Symtab.intern "canonical-probe" in
      let b = Symtab.intern "canonical-probe" in
      Alcotest.(check int) "same id" a b;
      Alcotest.(check string) "decodes back" "canonical-probe"
        (Symtab.to_string a);
      (* Packed equality is structural equality — distinct strings get
         distinct odd codes, equal strings the same one. *)
      Alcotest.(check bool) "equal strings, equal packed" true
        (pack_string "canonical-probe" = pack_string "canonical-probe");
      Alcotest.(check bool) "distinct strings, distinct packed" true
        (pack_string "canonical-probe" <> pack_string "canonical-probe-2"))

(* ------------------------------------------------------------------ *)
(* Satellite: insertion-order independence of every output surface      *)

(* The feature-complete differential program from the parallel suite:
   joins, negation, comparisons, recursion. *)
let diff_rules =
  [
    atom "two_hop" [ v "x"; v "z" ]
    <-- [
          pos (atom "edge" [ v "x"; v "y" ]);
          pos (atom "edge" [ v "y"; v "z" ]);
        ];
    atom "forward" [ v "x"; v "y" ]
    <-- [ pos (atom "edge" [ v "x"; v "y" ]); ev "y" >! ev "x" ];
    atom "one_way" [ v "x"; v "y" ]
    <-- [
          pos (atom "edge" [ v "x"; v "y" ]);
          neg (atom "edge" [ v "y"; v "x" ]);
        ];
    atom "path" [ v "x"; v "y" ] <-- [ pos (atom "edge" [ v "x"; v "y" ]) ];
    atom "path" [ v "x"; v "z" ]
    <-- [ pos (atom "edge" [ v "x"; v "y" ]); pos (atom "path" [ v "y"; v "z" ]) ];
  ]

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let rec go i =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "xcw-intern-%d-%d" !tmp_counter i)
    in
    if Sys.file_exists d then go (i + 1)
    else begin
      Sys.mkdir d 0o700;
      d
    end
  in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* File names plus exact bytes of a dump directory, then clean up. *)
let collect_dump dump dir =
  dump ~dir;
  let files = Sys.readdir dir in
  Array.sort compare files;
  let buf = Buffer.create 4096 in
  Array.iter
    (fun f ->
      Buffer.add_string buf f;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (read_file (Filename.concat dir f));
      Sys.remove (Filename.concat dir f))
    files;
  Sys.rmdir dir;
  Buffer.contents buf

let engine_dump_bytes db = collect_dump (Engine.dump_facts db) (fresh_dir ())

(* Facts with shared and distinct strings across several relations —
   enough aliasing that a leaked hash order would show. *)
let order_facts =
  List.concat_map
    (fun i ->
      let h = Printf.sprintf "0xhash%03d" i in
      let addr = Printf.sprintf "0xaddr%02d" (i mod 7) in
      [
        ("edge", [ Int (i mod 9); Int ((i * 5) mod 9) ]);
        ("seen", [ Str h; Int i; Str addr ]);
        ("owner", [ Str addr; Str (Printf.sprintf "user-%d" (i mod 3)) ]);
      ])
    (List.init 40 Fun.id)

let load_and_run facts =
  let db = Engine.create_db () in
  List.iter (fun (p, t) -> Engine.add_fact db p t) facts;
  ignore (Engine.run db { rules = diff_rules });
  db

let insertion_order_independent =
  Alcotest.test_case
    "different load orders produce identical dump_facts bytes" `Quick
    (fun () ->
      let orders =
        [
          order_facts;
          List.rev order_facts;
          (* An interleaving that groups by relation, stressing index
             build order. *)
          List.stable_sort (fun (p1, _) (p2, _) -> compare p1 p2) order_facts;
        ]
      in
      match List.map (fun o -> load_and_run o) orders with
      | [] -> assert false
      | ref_db :: rest ->
          let ref_bytes = engine_dump_bytes ref_db in
          let ref_facts p = Engine.facts ref_db p in
          List.iteri
            (fun i db ->
              if engine_dump_bytes db <> ref_bytes then
                Alcotest.failf "dump bytes diverged for order %d" (i + 1);
              List.iter
                (fun p ->
                  if Engine.facts db p <> ref_facts p then
                    Alcotest.failf "Engine.facts %S diverged for order %d" p
                      (i + 1))
                [ "edge"; "seen"; "owner"; "path"; "two_hop"; "one_way" ])
            rest)

(* ------------------------------------------------------------------ *)
(* Satellite: shard distribution on interned keys                       *)

(* Raw packed values are all-odd for strings and all-even for ints; a
   shard function that just masks low bits collapses either family onto
   half (or fewer) of the shards.  On a uniform workload no shard may
   hold more than 2x the mean. *)
let check_distribution name keys =
  let counts = Array.make Engine.Relation.nshards 0 in
  List.iter
    (fun key ->
      let s = Engine.Relation.shard_of_key key in
      counts.(s) <- counts.(s) + 1)
    keys;
  let total = List.length keys in
  let mean = float_of_int total /. float_of_int Engine.Relation.nshards in
  Array.iteri
    (fun i c ->
      if float_of_int c > 2.0 *. mean then
        Alcotest.failf "%s: shard %d holds %d keys (mean %.1f)" name i c mean)
    counts

let shard_distribution =
  Alcotest.test_case "no shard holds >2x the mean on uniform workloads"
    `Quick (fun () ->
      let n = 4096 in
      (* All-string single-cell keys: every packed value odd. *)
      check_distribution "string keys"
        (List.init n (fun i ->
             [| pack_string (Printf.sprintf "0x%040x" i) |]));
      (* All-int single-cell keys: every packed value even; sequential
         ints are the worst case for a low-bit mask. *)
      check_distribution "int keys"
        (List.init n (fun i -> [| pack_int i |]));
      (* Strided ints: the classic mask-degenerate workload. *)
      check_distribution "strided int keys"
        (List.init n (fun i -> [| pack_int (i * 16) |]));
      (* Two-cell composite keys as join probes produce them. *)
      check_distribution "composite keys"
        (List.init n (fun i ->
             [| pack_string (Printf.sprintf "tok-%d" (i mod 64)); pack_int i |])))

(* ------------------------------------------------------------------ *)
(* Satellite: symbol-id stability across polls and reorg rewinds        *)

let symtab_stable_under_rewind =
  Alcotest.test_case
    "reorg rewind + re-derive: same symbol ids, identical report bytes"
    `Quick (fun () ->
      let plan =
        { Fault.none with Fault.f_reorg_prob = 0.5; f_reorg_depth = 3 }
      in
      let b, m = T.make_bridge () in
      let input = T.monitor_input b in
      let user = T.user_with_tokens b m "intern-reorg" (u 1_000_000) in
      T.seed_completed_deposit b m user;
      let clean = Monitor.create input in
      let faulty =
        Monitor.create
          {
            input with
            Detector.i_source_fault = Some plan;
            i_target_fault = Some plan;
            i_rpc_seed = 7;
          }
      in
      List.iteri
        (fun i op ->
          T.apply_op b m user i op;
          let sb, tb = T.cur b in
          ignore (Monitor.poll clean ~source_block:sb ~target_block:tb);
          ignore (Monitor.poll faulty ~source_block:sb ~target_block:tb))
        [ 0; 1; 2; 3 ];
      (* Snapshot the packed encoding of everything decoded so far. *)
      let packed_snapshot mon =
        List.map Facts.to_packed (Monitor.cached_facts mon)
      in
      let before = packed_snapshot faulty in
      let sb, tb = T.cur b in
      (* Drain until at least one reorg has been signalled AND the
         monitor is synced again — each poll is another chance for the
         plan to fire a reorg, so this terminates fast. *)
      let polls = ref 0 in
      let settled () =
        let h = Monitor.health faulty in
        h.Monitor.h_synced && h.Monitor.h_reorgs > 0
      in
      while (not (settled ())) && !polls < 300 do
        incr polls;
        ignore (Monitor.poll faulty ~source_block:sb ~target_block:tb)
      done;
      ignore (Monitor.poll clean ~source_block:sb ~target_block:tb);
      Alcotest.(check bool) "faulty monitor synced" true
        (Monitor.health faulty).Monitor.h_synced;
      Alcotest.(check bool) "reorg signals were handled" true
        ((Monitor.health faulty).Monitor.h_reorgs > 0);
      (* Id stability: re-packing the same facts after rewinds and
         re-derivation yields byte-identical int tuples — the symbol
         table never reassigned an id. *)
      let after = packed_snapshot faulty in
      List.iter
        (fun (pred, tuple) ->
          match
            List.find_opt
              (fun (p, t) -> p = pred && t = tuple)
              after
          with
          | Some _ -> ()
          | None ->
              Alcotest.failf
                "packed tuple of %s changed across the rewind" pred)
        before;
      (* Report bytes: rewind + re-derive converges to the clean run. *)
      match (Monitor.last_report clean, Monitor.last_report faulty) with
      | Some rc, Some rf ->
          Alcotest.(check string) "report bytes identical"
            (Report.to_string rc) (Report.to_string rf)
      | _ -> Alcotest.fail "missing report")

(* ------------------------------------------------------------------ *)
(* Satellite: qcheck differential against the naive evaluator          *)

(* A grouped sum over [edge] and two rules over it.  A new edge
   replaces its node's [out_sum] tuple, a retraction; once the sum
   passes 12, [heavy] gains the node and [light], which negates
   [heavy], loses it — the incremental retraction path through an
   aggregate. *)
let aggregates =
  [
    {
      Engine.agg_pred = "out_sum";
      agg_source = "edge";
      agg_group_by = [ 0 ];
      agg_sum = 1;
    };
  ]

let aggregate_rules =
  [
    atom "heavy" [ v "x" ]
    <-- [ pos (atom "out_sum" [ v "x"; v "s" ]); ev "s" >! eint 12 ];
    atom "light" [ v "x" ]
    <-- [ pos (atom "edge" [ v "x"; v "y" ]); neg (atom "heavy" [ v "x" ]) ];
  ]

(* Random programs: a random non-empty subset of a safe rule pool over
   random batches of edge facts.  Every pool member is range-restricted,
   so any subset is a valid program; subsets vary the stratum structure
   (with and without recursion, negation, comparisons and the
   aggregate). *)
let rule_pool = Array.of_list (diff_rules @ aggregate_rules)

let gen_program =
  QCheck.Gen.(
    list_size
      (1 -- Array.length rule_pool)
      (int_bound (Array.length rule_pool - 1))
    >|= fun picks ->
    List.sort_uniq compare picks |> List.map (Array.get rule_pool))

(* A negative weight can lower a node's sum below 12 in a later batch,
   retracting [heavy] through the aggregate's diff. *)
let gen_edges =
  QCheck.Gen.(list_size (0 -- 40) (pair (int_bound 12) (int_range (-4) 12)))

let arb_case =
  QCheck.make QCheck.Gen.(pair gen_program (list_size (1 -- 3) gen_edges))

let head_preds rules =
  List.sort_uniq compare
    ("edge" :: "out_sum" :: List.map (fun r -> r.head.pred) rules)

let naive_run rules edges =
  let db = Naive.create_db () in
  List.iter (fun (a, b) -> Naive.add_fact db "edge" [ Int a; Int b ]) edges;
  let derived = Naive.run ~aggregates db { rules } in
  (List.map (fun p -> (p, Naive.facts db p)) (head_preds rules), derived)

let engine_relations db rules =
  List.map
    (fun p -> (p, List.map Array.to_list (Engine.facts db p)))
    (head_preds rules)

let engine_run ~ndomains rules edges =
  let db = Engine.create_db () in
  List.iter (fun (a, b) -> Engine.add_fact db "edge" [ Int a; Int b ]) edges;
  let stats = Engine.run ~ndomains ~aggregates db { rules } in
  (engine_relations db rules, stats.Engine.tuples_derived)

let insert_edges db edges =
  List.iter
    (fun (a, b) -> ignore (Engine.insert_fact db "edge" [ Int a; Int b ]))
    edges

(* The relations after each batch, brought up to date by
   [run_incremental] on one database. *)
let engine_incremental ~ndomains rules batches =
  let db = Engine.create_db () in
  let plan = Engine.prepare ~aggregates { rules } in
  List.map
    (fun edges ->
      insert_edges db edges;
      ignore (Engine.run_incremental ~ndomains plan db);
      engine_relations db rules)
    batches

(* [Naive] from scratch over every edge up to each batch. *)
let naive_prefixes rules batches =
  List.rev
    (snd
       (List.fold_left
          (fun (edges, acc) batch ->
            let edges = edges @ batch in
            (edges, fst (naive_run rules edges) :: acc))
          ([], []) batches))

(* From scratch over every batch, and by [run_incremental] after each
   batch. *)
let prop_naive_vs_engine =
  QCheck.Test.make
    ~name:
      "naive = engine on random programs (relations, derived counts) at \
       --jobs 1/2/4"
    ~count:(qcount 40) arb_case
    (fun (rules, batches) ->
      let reference = naive_run rules (List.concat batches) in
      let prefixes = naive_prefixes rules batches in
      List.for_all
        (fun k ->
          engine_run ~ndomains:k rules (List.concat batches) = reference
          && engine_incremental ~ndomains:k rules batches = prefixes)
        [ 1; 2; 4 ])

(* Each relation's packed tuples, sorted. *)
let packed_relations db rules =
  List.map
    (fun p -> (p, List.sort compare (Engine.packed_facts db p)))
    (head_preds rules)

(* Does the change set of one [run_incremental] describe how every
   relation moved from [before] (as the previous run left the database,
   i.e. before this batch's insertions) to [after]?  After an
   incremental run it must be the exact diff: the tuples gained, and
   whether any was lost.  The first run is a full one: it lists no
   tuples and counts exactly the relations it evaluated — the rule and
   aggregate heads — as changed. *)
let change_set_is_diff rules ch ~before ~after =
  let evaluated = "out_sum" :: List.map (fun r -> r.head.pred) rules in
  List.for_all
    (fun (p, now) ->
      let old = List.assoc p before in
      if Engine.full_run ch then
        Engine.added ch p = [] && Engine.changed ch p = List.mem p evaluated
      else
        let gained = List.filter (fun t -> not (List.mem t old)) now in
        let lost = List.exists (fun t -> not (List.mem t now)) old in
        List.sort compare (Engine.added ch p) = gained
        && Engine.lost ch p = lost
        && Engine.changed ch p = (gained <> [] || lost))
    after

let prop_change_set =
  QCheck.Test.make
    ~name:
      "run_incremental's change set = the diff of every relation across \
       each run, at --jobs 1/2/4"
    ~count:(qcount 40) arb_case
    (fun (rules, batches) ->
      List.for_all
        (fun ndomains ->
          let db = Engine.create_db () in
          let plan = Engine.prepare ~aggregates { rules } in
          let _, ok =
            List.fold_left
              (fun (before, ok) (i, edges) ->
                insert_edges db edges;
                let _, ch = Engine.run_incremental ~ndomains plan db in
                let after = packed_relations db rules in
                ( after,
                  ok
                  && Engine.full_run ch = (i = 0)
                  && change_set_is_diff rules ch ~before ~after ))
              (packed_relations db rules, true)
              (List.mapi (fun i edges -> (i, edges)) batches)
          in
          ok)
        [ 1; 2; 4 ])

let aggregate_crossing =
  Alcotest.test_case
    "edge(1,5) then edge(1,9): out_sum and light retract, heavy gains, \
     = naive at --jobs 1/2/4"
    `Quick (fun () ->
      let batches = [ [ (1, 5) ]; [ (1, 9) ] ] in
      let expected =
        [
          [
            ("edge", [ [ Int 1; Int 5 ] ]);
            ("heavy", []);
            ("light", [ [ Int 1 ] ]);
            ("out_sum", [ [ Int 1; Int 5 ] ]);
          ];
          [
            ("edge", [ [ Int 1; Int 5 ]; [ Int 1; Int 9 ] ]);
            ("heavy", [ [ Int 1 ] ]);
            ("light", []);
            ("out_sum", [ [ Int 1; Int 14 ] ]);
          ];
        ]
      in
      let const = Alcotest.testable pp_const ( = ) in
      let same =
        Alcotest.(check (list (list (pair string (list (list const))))))
      in
      same "naive" expected (naive_prefixes aggregate_rules batches);
      List.iter
        (fun k ->
          same (Printf.sprintf "--jobs %d" k) expected
            (engine_incremental ~ndomains:k aggregate_rules batches))
        [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "interned"
    [
      ("packing", [ pack_roundtrip; symtab_canonical ]);
      ("order", [ insertion_order_independent ]);
      ("shards", [ shard_distribution ]);
      ("symtab-stability", [ symtab_stable_under_rewind ]);
      ( "differential",
        QCheck_alcotest.to_alcotest prop_naive_vs_engine
        :: QCheck_alcotest.to_alcotest prop_change_set
        :: [ aggregate_crossing ] );
    ]
