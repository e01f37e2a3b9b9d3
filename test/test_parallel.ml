(* Sequential-equivalence net for domain-parallel evaluation.

   The engine promises that [Engine.run ~ndomains:k] is observationally
   identical to the sequential engine for any k — same relations, same
   derived-tuple counts, same dump_facts bytes — and that the monitor's
   alert stream is order-identical across worker counts.  These
   properties are what lets every consumer turn on [--jobs] without
   re-validating its goldens, so they are tested differentially here
   before anyone trusts the speedup.

   Also home to the [Xcw_par.Pool] unit tests (exception propagation,
   ordering, reuse, the 1-domain no-spawn guarantee) and the
   multi-domain metrics hammer (no lost increments now that the
   [Xcw_obs.Metrics] hot paths are domain-safe). *)

open Xcw_datalog
open Ast
module Pool = Xcw_par.Pool
module Metrics = Xcw_obs.Metrics
module U256 = Xcw_uint256.Uint256
module Detector = Xcw_core.Detector
module Monitor = Xcw_core.Monitor
module Report = Xcw_core.Report
module T = Xcw_testlib

let u = U256.of_int
let qcount = T.qcount

(* ------------------------------------------------------------------ *)
(* Differential harness                                                *)

(* A program exercising every evaluation feature the parallel path has
   to reproduce: multi-literal joins, stratified negation, comparison
   built-ins, and a recursive stratum. *)
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

let edges_to_facts edges =
  List.map (fun (a, b) -> ("edge", [ Int a; Int b ])) edges

let gen_edges =
  QCheck.Gen.(list_size (0 -- 40) (pair (int_bound 12) (int_bound 12)))

(* Fresh scratch directory for dump_facts byte comparison. *)
let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let rec go i =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "xcw-par-%d-%d" !tmp_counter i)
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

(* Every fact file's name and exact bytes, concatenated in sorted file
   order — the strongest observational signature dump_facts offers. *)
let dump_bytes db =
  let dir = fresh_dir () in
  Engine.dump_facts db ~dir;
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

let relation_signature db =
  List.map
    (fun p -> (p, List.sort compare (Engine.facts db p)))
    (Engine.derived_predicates db)

let run_batch ~naive ~ndomains facts =
  let db = Engine.create_db () in
  List.iter (fun (p, t) -> Engine.add_fact db p t) facts;
  let stats = Engine.run ~naive ~ndomains db { rules = diff_rules } in
  (relation_signature db, stats.Engine.tuples_derived, dump_bytes db)

(* [naive] re-runs every rule of the recursive [path] stratum in full
   each round, through the pool as well as inline. *)
let prop_run_differential =
  QCheck.Test.make
    ~name:"run ~ndomains:k = sequential (relations, counts, TSV bytes)"
    ~count:(qcount 40)
    (QCheck.pair QCheck.bool (QCheck.make gen_edges))
    (fun (naive, edges) ->
      let facts = edges_to_facts edges in
      let reference = run_batch ~naive ~ndomains:1 facts in
      List.for_all
        (fun k -> run_batch ~naive ~ndomains:k facts = reference)
        [ 2; 4 ])

let run_incremental_batches ~ndomains batches =
  let db = Engine.create_db () in
  let plan = Engine.prepare { rules = diff_rules } in
  List.iter
    (fun batch ->
      List.iter
        (fun (p, t) -> ignore (Engine.insert_fact db p t))
        (edges_to_facts batch);
      ignore (Engine.run_incremental ~ndomains plan db))
    batches;
  (relation_signature db, dump_bytes db)

let prop_incremental_differential =
  QCheck.Test.make
    ~name:"run_incremental ~ndomains:k = sequential over journaled deltas"
    ~count:(qcount 30)
    (QCheck.pair (QCheck.make gen_edges) (QCheck.make gen_edges))
    (fun (e1, e2) ->
      let reference = run_incremental_batches ~ndomains:1 [ e1; e2 ] in
      List.for_all
        (fun k -> run_incremental_batches ~ndomains:k [ e1; e2 ] = reference)
        [ 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Monitor alert streams across worker counts                          *)

(* The whole scripted scenario is deterministic, so two independent
   bridges driven by the same op list produce the same chains; the only
   degree of freedom left is [i_ndomains].  Streams are compared
   poll-by-poll WITHOUT sorting: order-identical, not just set-equal. *)
let alert_stream ~ndomains ops =
  let b, m = T.make_bridge () in
  let input = { (T.monitor_input b) with Detector.i_ndomains = ndomains } in
  let mon = Monitor.create input in
  let user = T.user_with_tokens b m "par-mon-user" (u 1_000_000) in
  T.seed_completed_deposit b m user;
  List.mapi
    (fun i op ->
      T.apply_op b m user i op;
      let sb, tb = T.cur b in
      List.map
        (fun (a : Monitor.alert) ->
          ( a.Monitor.al_rule,
            Report.class_name a.Monitor.al_anomaly.Report.a_class,
            a.Monitor.al_anomaly.Report.a_tx_hash,
            a.Monitor.al_detected_at ))
        (Monitor.poll mon ~source_block:sb ~target_block:tb))
    ops

let monitor_streams_identical =
  Alcotest.test_case "monitor alert streams order-identical at 1/2/4 domains"
    `Quick (fun () ->
      let ops = [ 0; 1; 2; 3; 0; 2; 1; 3 ] in
      let reference = alert_stream ~ndomains:1 ops in
      Alcotest.(check bool)
        "some alerts raised (scenario not vacuous)" true
        (List.exists (fun poll -> poll <> []) reference);
      List.iter
        (fun k ->
          if alert_stream ~ndomains:k ops <> reference then
            Alcotest.failf "alert stream at ndomains:%d diverged" k)
        [ 2; 4 ])

let prop_monitor_streams =
  QCheck.Test.make
    ~name:"monitor alert streams order-identical on random op scripts"
    ~count:(qcount 5)
    (T.arb_ops ~max_len:6)
    (fun ops ->
      alert_stream ~ndomains:4 ops = alert_stream ~ndomains:1 ops)

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)

exception Boom of int

let pool_results_ordered =
  Alcotest.test_case "results in submission order despite skewed tasks"
    `Quick (fun () ->
      let p = Pool.create ~ndomains:4 in
      let n = 32 in
      let tasks =
        List.init n (fun i () ->
            (* Early tasks are the slow ones, so a finish-order merge
               would come back reversed. *)
            let spin = (n - i) * 10_000 in
            let acc = ref 0 in
            for j = 1 to spin do
              acc := (!acc + j) land 0xffff
            done;
            ignore !acc;
            i)
      in
      Alcotest.(check (list int)) "ordered" (List.init n Fun.id)
        (Pool.run p tasks);
      Pool.shutdown p)

let pool_exception_propagates =
  Alcotest.test_case "lowest-index task exception reaches submitter" `Quick
    (fun () ->
      let p = Pool.create ~ndomains:3 in
      (match
         Pool.run p
           (List.init 8 (fun i () ->
                if i = 2 || i = 5 then raise (Boom i) else i))
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest index wins" 2 i);
      (* No deadlock, no dead worker: the pool still runs batches. *)
      Alcotest.(check (list int)) "pool alive after exception" [ 0; 1; 4; 9 ]
        (Pool.run p (List.init 4 (fun i () -> i * i)));
      Pool.shutdown p)

let pool_empty_batch =
  Alcotest.test_case "empty batch returns immediately" `Quick (fun () ->
      let p = Pool.create ~ndomains:2 in
      Alcotest.(check (list unit)) "empty" [] (Pool.run p []);
      Pool.shutdown p;
      (* Even on a shut-down pool: the empty batch never touches the
         workers. *)
      Alcotest.(check (list unit)) "empty after shutdown" [] (Pool.run p []))

let pool_reusable =
  Alcotest.test_case "pool reusable across batches; stats accumulate" `Quick
    (fun () ->
      (* The pool interns its series in the default registry current at
         [create]; a fresh one isolates this pool's counts. *)
      let saved = Metrics.default () in
      let reg = Metrics.create () in
      Metrics.set_default reg;
      let p =
        Fun.protect
          ~finally:(fun () -> Metrics.set_default saved)
          (fun () -> Pool.create ~ndomains:2)
      in
      for round = 1 to 3 do
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (List.init 5 (fun i -> i + round))
          (Pool.run p (List.init 5 (fun i () -> i + round)))
      done;
      let labels = [ ("ndomains", "2") ] in
      Alcotest.(check int) "batches" 3
        (Metrics.Histogram.count
           (Metrics.histogram reg ~labels "xcw_par_batch_tasks"));
      Alcotest.(check int) "tasks" 15
        (Metrics.Counter.value
           (Metrics.counter reg ~labels "xcw_par_tasks_total"));
      Pool.shutdown p)

let pool_one_domain_never_spawns =
  Alcotest.test_case "ndomains:1 never spawns" `Quick (fun () ->
      let self = Domain.self () in
      let doms =
        Pool.run (Pool.create ~ndomains:1)
          (List.init 16 (fun _ () -> Domain.self ()))
      in
      List.iter
        (fun d -> if d <> self then Alcotest.fail "task ran on a spawned domain")
        doms)

let pool_shutdown_rejects_work =
  Alcotest.test_case "run on a shut-down pool raises" `Quick (fun () ->
      let p = Pool.create ~ndomains:2 in
      Pool.shutdown p;
      match Pool.run p [ (fun () -> 1) ] with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Metrics hammer                                                      *)

let metrics_hammer =
  Alcotest.test_case "no lost metric updates under 4 hammering domains"
    `Quick (fun () ->
      let reg = Metrics.create () in
      let c = Metrics.counter reg "hammer_total" in
      let g = Metrics.gauge reg "hammer_gauge" in
      let h = Metrics.histogram reg "hammer_hist" in
      let ndomains = 4 and per = qcount 25_000 in
      let doms =
        List.init ndomains (fun _ ->
            Domain.spawn (fun () ->
                (* Interning from several domains must also be safe and
                   must resolve to the same instruments. *)
                let c = Metrics.counter reg "hammer_total" in
                let g = Metrics.gauge reg "hammer_gauge" in
                let h = Metrics.histogram reg "hammer_hist" in
                for i = 1 to per do
                  Metrics.Counter.inc c;
                  Metrics.Gauge.add g 1.0;
                  Metrics.Histogram.observe h (float_of_int (i land 7))
                done))
      in
      List.iter Domain.join doms;
      let total = ndomains * per in
      Alcotest.(check int) "counter" total (Metrics.Counter.value c);
      Alcotest.(check (float 0.0)) "gauge" (float_of_int total)
        (Metrics.Gauge.value g);
      Alcotest.(check int) "histogram count" total (Metrics.Histogram.count h))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_run_differential; prop_incremental_differential ] );
      ( "monitor",
        monitor_streams_identical
        :: List.map QCheck_alcotest.to_alcotest [ prop_monitor_streams ] );
      ( "pool",
        [
          pool_results_ordered;
          pool_exception_propagates;
          pool_empty_batch;
          pool_reusable;
          pool_one_domain_never_spawns;
          pool_shutdown_rejects_work;
        ] );
      ("metrics", [ metrics_hammer ]);
    ]
