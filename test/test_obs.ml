(* Tests for Xcw_obs: the metrics registry, span tracing, sinks (the
   Prometheus and JSON-lines round-trips are correctness requirements
   for exporting), and the instrumentation wired through the RPC
   client, Datalog engine and monitor — which must observe without
   perturbing behaviour. *)

module U256 = Xcw_uint256.Uint256
module Stats = Xcw_util.Stats
module Json = Xcw_util.Json
module Chain = Xcw_chain.Chain
module Rpc = Xcw_rpc.Rpc
module Client = Xcw_rpc.Client
module Fault = Xcw_rpc.Fault
module Engine = Xcw_datalog.Engine
module Ast = Xcw_datalog.Ast
module Monitor = Xcw_core.Monitor
module Clock = Xcw_obs.Clock
module Metrics = Xcw_obs.Metrics
module Span = Xcw_obs.Span
module Sink = Xcw_obs.Sink
module T = Xcw_testlib

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                  *)

let counter_basics =
  Alcotest.test_case "counter inc/add/value and interning" `Quick (fun () ->
      let reg = Metrics.create () in
      let c = Metrics.counter reg "xcw_test_total" in
      Metrics.Counter.inc c;
      Metrics.Counter.add c 4;
      Alcotest.(check int) "value" 5 (Metrics.Counter.value c);
      (* Interning: asking again returns the same instrument. *)
      let c' = Metrics.counter reg "xcw_test_total" in
      Metrics.Counter.inc c';
      Alcotest.(check int) "shared" 6 (Metrics.Counter.value c);
      Alcotest.check_raises "negative add"
        (Invalid_argument "Counter.add: negative increment")
        (fun () -> Metrics.Counter.add c (-1)))

let gauge_basics =
  Alcotest.test_case "gauge set/add/value" `Quick (fun () ->
      let reg = Metrics.create () in
      let g = Metrics.gauge reg "xcw_test_gauge" in
      Metrics.Gauge.set g 2.5;
      Metrics.Gauge.add g (-1.0);
      Alcotest.(check (float 1e-9)) "value" 1.5 (Metrics.Gauge.value g))

let labels_order_independent =
  Alcotest.test_case "label order does not change identity" `Quick (fun () ->
      let reg = Metrics.create () in
      let a =
        Metrics.counter reg ~labels:[ ("x", "1"); ("y", "2") ] "xcw_lbl_total"
      in
      let b =
        Metrics.counter reg ~labels:[ ("y", "2"); ("x", "1") ] "xcw_lbl_total"
      in
      Metrics.Counter.inc a;
      Metrics.Counter.inc b;
      Alcotest.(check int) "one instrument" 2 (Metrics.Counter.value a);
      (* Different label values are different instruments. *)
      let c =
        Metrics.counter reg ~labels:[ ("x", "1"); ("y", "3") ] "xcw_lbl_total"
      in
      Alcotest.(check int) "distinct" 0 (Metrics.Counter.value c))

let kind_mismatch_raises =
  Alcotest.test_case "re-registering under another kind raises" `Quick
    (fun () ->
      let reg = Metrics.create () in
      ignore (Metrics.counter reg "xcw_kind_total");
      try
        ignore (Metrics.gauge reg "xcw_kind_total");
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

let invalid_name_raises =
  Alcotest.test_case "invalid metric names are rejected" `Quick (fun () ->
      let reg = Metrics.create () in
      List.iter
        (fun name ->
          try
            ignore (Metrics.counter reg name);
            Alcotest.fail ("accepted invalid name: " ^ name)
          with Invalid_argument _ -> ())
        [ ""; "9starts_with_digit"; "has space"; "has-dash" ])

let snapshot_sorted_and_find =
  Alcotest.test_case "snapshot sorted by (name, labels); find works" `Quick
    (fun () ->
      let reg = Metrics.create () in
      Metrics.Counter.inc (Metrics.counter reg "xcw_b_total");
      Metrics.Gauge.set (Metrics.gauge reg "xcw_a_gauge") 1.0;
      Metrics.Counter.inc
        (Metrics.counter reg ~labels:[ ("k", "v") ] "xcw_b_total");
      let snap = Metrics.snapshot reg in
      let names = List.map (fun m -> m.Metrics.m_name) snap in
      Alcotest.(check (list string))
        "sorted"
        [ "xcw_a_gauge"; "xcw_b_total"; "xcw_b_total" ]
        names;
      match Metrics.find snap ~labels:[ ("k", "v") ] "xcw_b_total" with
      | Some { Metrics.m_value = Metrics.V_counter 1; _ } -> ()
      | _ -> Alcotest.fail "find with labels")

let noop_is_inert =
  Alcotest.test_case "noop registry interns nothing and records nothing"
    `Quick (fun () ->
      let c = Metrics.counter Metrics.noop "xcw_dead_total" in
      Metrics.Counter.inc c;
      Metrics.Counter.add c 10;
      Alcotest.(check int) "counter dead" 0 (Metrics.Counter.value c);
      let h = Metrics.histogram Metrics.noop "xcw_dead_seconds" in
      Metrics.Histogram.observe h 1.0;
      Alcotest.(check int) "histogram dead" 0 (Metrics.Histogram.count h);
      Alcotest.(check int)
        "snapshot empty" 0
        (List.length (Metrics.snapshot Metrics.noop)))

(* ------------------------------------------------------------------ *)
(* Histogram bucketing                                                 *)

let histogram_matches_stats =
  QCheck.Test.make ~count:100
    ~name:"histogram buckets match Stats.log_histogram on positive samples"
    QCheck.(list_of_size Gen.(0 -- 60) (float_range 0.0001 900.0))
    (fun xs ->
      let conf =
        { Metrics.lo_exp = -3; hi_exp = 3; buckets_per_decade = 4 }
      in
      let reg = Metrics.create () in
      let h = Metrics.histogram reg ~conf "xcw_cmp_seconds" in
      List.iter (Metrics.Histogram.observe h) xs;
      Metrics.Histogram.buckets h
      = Stats.log_histogram xs ~lo_exp:(-3) ~hi_exp:3 ~buckets_per_decade:4)

let histogram_clamps_non_positive =
  Alcotest.test_case "non-positive samples land in the first bucket" `Quick
    (fun () ->
      let reg = Metrics.create () in
      let h = Metrics.histogram reg "xcw_clamp_seconds" in
      Metrics.Histogram.observe h 0.0;
      Metrics.Histogram.observe h (-5.0);
      Metrics.Histogram.observe h 1e-30;
      Alcotest.(check int) "count" 3 (Metrics.Histogram.count h);
      Alcotest.(check (float 1e-9)) "sum" (-5.0) (Metrics.Histogram.sum h);
      match Metrics.Histogram.buckets h with
      | (_, first) :: rest ->
          Alcotest.(check int) "first bucket" 3 first;
          Alcotest.(check int) "rest empty" 0
            (List.fold_left (fun acc (_, c) -> acc + c) 0 rest)
      | [] -> Alcotest.fail "no buckets")

let histogram_clamps_overflow =
  Alcotest.test_case "out-of-range samples clamp to the edge buckets" `Quick
    (fun () ->
      let conf = { Metrics.lo_exp = -1; hi_exp = 1; buckets_per_decade = 1 } in
      let reg = Metrics.create () in
      let h = Metrics.histogram reg ~conf "xcw_edge_seconds" in
      Metrics.Histogram.observe h 1e9;
      Metrics.Histogram.observe h 1e-9;
      let buckets = Metrics.Histogram.buckets h in
      Alcotest.(check int) "bucket count" 2 (List.length buckets);
      Alcotest.(check (list int))
        "edges" [ 1; 1 ]
        (List.map snd buckets))

(* ------------------------------------------------------------------ *)
(* Sinks: Prometheus and JSON-lines round-trips                        *)

(* A registry exercising every instrument kind, labels needing escape
   handling, and non-trivial float values. *)
let sample_registry () =
  let reg = Metrics.create () in
  Metrics.Counter.add (Metrics.counter reg "xcw_rt_total") 7;
  Metrics.Counter.add
    (Metrics.counter reg
       ~labels:[ ("method", "receipt"); ("weird", "a\"b\\c\nd") ]
       "xcw_rt_total")
    3;
  Metrics.Gauge.set (Metrics.gauge reg "xcw_rt_gauge") (-0.125);
  Metrics.Gauge.set
    (Metrics.gauge reg ~labels:[ ("side", "source") ] "xcw_rt_gauge")
    12345.6789;
  let h = Metrics.histogram reg "xcw_rt_seconds" in
  List.iter (Metrics.Histogram.observe h) [ 0.0005; 0.3; 0.31; 42.0; 1e9 ];
  reg

let prometheus_roundtrip =
  Alcotest.test_case "prometheus exposition parses back to the snapshot"
    `Quick (fun () ->
      let snap = Metrics.snapshot (sample_registry ()) in
      let text = Sink.prometheus_of_metrics snap in
      let back = Sink.metrics_of_prometheus text in
      Alcotest.(check int) "metric count" (List.length snap) (List.length back);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "name" a.Metrics.m_name b.Metrics.m_name;
          Alcotest.(check (list (pair string string)))
            "labels" a.Metrics.m_labels b.Metrics.m_labels;
          match (a.Metrics.m_value, b.Metrics.m_value) with
          | Metrics.V_counter x, Metrics.V_counter y ->
              Alcotest.(check int) "counter" x y
          | Metrics.V_gauge x, Metrics.V_gauge y ->
              Alcotest.(check (float 1e-12)) "gauge" x y
          | Metrics.V_histogram x, Metrics.V_histogram y ->
              Alcotest.(check int) "h_count" x.Metrics.h_count
                y.Metrics.h_count;
              Alcotest.(check (float 1e-9)) "h_sum" x.Metrics.h_sum
                y.Metrics.h_sum;
              Alcotest.(check (list (pair (float 1e-9) int)))
                "buckets" x.Metrics.h_buckets y.Metrics.h_buckets
          | _ -> Alcotest.fail "kind changed through the round-trip")
        snap back)

let prometheus_text_shape =
  Alcotest.test_case "exposition has TYPE lines and cumulative buckets"
    `Quick (fun () ->
      let text = Sink.prometheus_of_metrics (Metrics.snapshot (sample_registry ())) in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "counter TYPE" true
        (contains text "# TYPE xcw_rt_total counter");
      Alcotest.(check bool) "histogram TYPE" true
        (contains text "# TYPE xcw_rt_seconds histogram");
      Alcotest.(check bool) "+Inf bucket" true
        (contains text "le=\"+Inf\"");
      Alcotest.(check bool) "escaped quote" true
        (contains text "a\\\"b"))

let json_lines_roundtrip =
  Alcotest.test_case "JSON-lines metrics parse back to the snapshot" `Quick
    (fun () ->
      let snap = Metrics.snapshot (sample_registry ()) in
      let lines = Sink.json_lines_of_metrics snap in
      let back =
        String.split_on_char '\n' lines
        |> List.filter (fun l -> String.trim l <> "")
        |> List.map (fun l -> Sink.metric_of_json (Json.of_string l))
      in
      Alcotest.(check bool) "equal" true (snap = back))

let span_json_roundtrip =
  Alcotest.test_case "span records survive the JSON round-trip" `Quick
    (fun () ->
      let clock = Clock.manual ~start:100.0 () in
      let tracer = Span.create ~clock () in
      Span.with_ ~tracer ~attrs:[ ("k", "v\n\"w") ] "outer" (fun () ->
          Clock.advance clock 1.5;
          Span.with_ ~tracer "inner" (fun () -> Clock.advance clock 0.25));
      let spans = Span.records tracer in
      let back =
        String.split_on_char '\n' (Sink.json_lines_of_spans spans)
        |> List.filter (fun l -> String.trim l <> "")
        |> List.map (fun l -> Sink.span_of_json (Json.of_string l))
      in
      Alcotest.(check bool) "equal" true (spans = back))

let memory_sink_stores =
  Alcotest.test_case "memory sink retains metrics and appends spans" `Quick
    (fun () ->
      let sink = Sink.memory () in
      let snap = Metrics.snapshot (sample_registry ()) in
      Sink.emit_metrics sink snap;
      Sink.emit_metrics sink snap;
      let tracer = Span.create ~clock:(Clock.manual ()) () in
      Span.with_ ~tracer "a" (fun () -> ());
      Sink.emit_spans sink (Span.records tracer);
      Sink.emit_spans sink (Span.records tracer);
      let store = Sink.store sink in
      Alcotest.(check int) "metrics replaced" (List.length snap)
        (List.length store.Sink.st_metrics);
      Alcotest.(check int) "spans appended" 2
        (List.length store.Sink.st_spans))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let span_nesting =
  Alcotest.test_case "nesting depths, durations and post-order" `Quick
    (fun () ->
      let clock = Clock.manual ~start:10.0 () in
      let tracer = Span.create ~clock () in
      let result =
        Span.with_ ~tracer "outer" (fun () ->
            Clock.advance clock 1.0;
            Span.with_ ~tracer "inner" (fun () ->
                Clock.advance clock 2.0;
                "done"))
      in
      Alcotest.(check string) "result" "done" result;
      match Span.records tracer with
      | [ inner; outer ] ->
          Alcotest.(check string) "inner first" "inner" inner.Span.sp_name;
          Alcotest.(check int) "inner depth" 1 inner.Span.sp_depth;
          Alcotest.(check (float 1e-9)) "inner start" 11.0 inner.Span.sp_start;
          Alcotest.(check (float 1e-9)) "inner duration" 2.0
            inner.Span.sp_duration;
          Alcotest.(check int) "outer depth" 0 outer.Span.sp_depth;
          Alcotest.(check (float 1e-9)) "outer duration" 3.0
            outer.Span.sp_duration
      | rs -> Alcotest.fail (Printf.sprintf "%d records" (List.length rs)))

let span_exception_safe =
  Alcotest.test_case "a span is recorded when the thunk raises" `Quick
    (fun () ->
      let clock = Clock.manual () in
      let tracer = Span.create ~clock () in
      (try
         Span.with_ ~tracer "boom" (fun () ->
             Clock.advance clock 0.5;
             failwith "expected")
       with Failure _ -> ());
      (* Depth must be restored: the next root span is depth 0. *)
      Span.with_ ~tracer "after" (fun () -> ());
      match Span.records tracer with
      | [ boom; after ] ->
          Alcotest.(check string) "recorded" "boom" boom.Span.sp_name;
          Alcotest.(check (float 1e-9)) "duration" 0.5 boom.Span.sp_duration;
          Alcotest.(check int) "depth restored" 0 after.Span.sp_depth
      | rs -> Alcotest.fail (Printf.sprintf "%d records" (List.length rs)))

let span_ring_bound =
  Alcotest.test_case "ring keeps the newest records and counts drops" `Quick
    (fun () ->
      let tracer = Span.create ~capacity:3 ~clock:(Clock.manual ()) () in
      for i = 1 to 5 do
        Span.with_ ~tracer (Printf.sprintf "s%d" i) (fun () -> ())
      done;
      Alcotest.(check (list string))
        "newest three" [ "s3"; "s4"; "s5" ]
        (List.map (fun r -> r.Span.sp_name) (Span.records tracer));
      Alcotest.(check int) "dropped" 2 (Span.dropped tracer);
      Span.clear tracer;
      Alcotest.(check int) "cleared" 0 (List.length (Span.records tracer)))

let span_noop_inert =
  Alcotest.test_case "noop tracer runs the thunk and records nothing" `Quick
    (fun () ->
      let r = Span.with_ ~tracer:Span.noop "x" (fun () -> 41 + 1) in
      Alcotest.(check int) "result" 42 r;
      Alcotest.(check int) "no records" 0
        (List.length (Span.records Span.noop)))

(* ------------------------------------------------------------------ *)
(* Pipeline instrumentation                                            *)

let engine_metrics =
  Alcotest.test_case "Engine.run records rule and stratum instruments"
    `Quick (fun () ->
      let db = Engine.create_db () in
      for i = 0 to 49 do
        Engine.add_fact db "edge" [ Ast.Int i; Ast.Int (i + 1) ]
      done;
      let program =
        Ast.
          {
            rules =
              [
                atom "path" [ v "x"; v "y" ]
                <-- [ pos (atom "edge" [ v "x"; v "y" ]) ];
                atom "path" [ v "x"; v "z" ]
                <-- [
                      pos (atom "edge" [ v "x"; v "y" ]);
                      pos (atom "path" [ v "y"; v "z" ]);
                    ];
              ];
          }
      in
      let reg = Metrics.create () in
      let stats = Engine.run ~metrics:reg db program in
      let snap = Metrics.snapshot reg in
      (match Metrics.find snap "xcw_datalog_tuples_derived_total" with
      | Some { Metrics.m_value = Metrics.V_counter n; _ } ->
          Alcotest.(check int) "tuples counter" stats.Engine.tuples_derived n
      | _ -> Alcotest.fail "missing tuples counter");
      (match
         Metrics.find snap
           ~labels:[ ("rule", "01:path") ]
           "xcw_datalog_rule_seconds"
       with
      | Some { Metrics.m_value = Metrics.V_histogram h; _ } ->
          Alcotest.(check bool) "recursive rule evaluated" true
            (h.Metrics.h_count > 0)
      | _ -> Alcotest.fail "missing rule histogram");
      match
        List.find_opt
          (fun m -> m.Metrics.m_name = "xcw_datalog_stratum_seconds")
          snap
      with
      | Some _ -> ()
      | None -> Alcotest.fail "missing stratum histogram")

let engine_noop_metrics_free =
  Alcotest.test_case "Engine.run with the noop registry registers nothing"
    `Quick (fun () ->
      let db = Engine.create_db () in
      Engine.add_fact db "edge" [ Ast.Int 1; Ast.Int 2 ];
      let program =
        Ast.
          {
            rules =
              [
                atom "path" [ v "x"; v "y" ]
                <-- [ pos (atom "edge" [ v "x"; v "y" ]) ];
              ];
          }
      in
      ignore (Engine.run ~metrics:Metrics.noop db program);
      Alcotest.(check int) "nothing interned" 0
        (List.length (Metrics.snapshot Metrics.noop)))

let plan_noop_metrics_free =
  Alcotest.test_case
    "a plan on the noop registry registers nothing, across its runs"
    `Quick (fun () ->
      let program =
        Ast.
          {
            rules =
              [
                atom "path" [ v "x"; v "y" ]
                <-- [ pos (atom "edge" [ v "x"; v "y" ]) ];
                atom "lone" [ v "x" ]
                <-- [
                      pos (atom "edge" [ v "x"; v "y" ]);
                      neg (atom "path" [ v "y"; v "x" ]);
                    ];
              ];
          }
      in
      let plan = Engine.prepare ~metrics:Metrics.noop program in
      let db = Engine.create_db () in
      Engine.add_fact db "edge" [ Ast.Int 1; Ast.Int 2 ];
      ignore (Engine.run_incremental plan db);
      Engine.add_fact db "edge" [ Ast.Int 2; Ast.Int 1 ];
      ignore (Engine.run_incremental plan db);
      ignore (Engine.run_incremental plan db);
      Alcotest.(check int) "nothing interned" 0
        (List.length (Metrics.snapshot Metrics.noop)))

let monitor_metrics =
  Alcotest.test_case "monitor polls record counters, gauges and spans"
    `Quick (fun () ->
      let b, m = T.make_bridge () in
      let user = T.user_with_tokens b m "obs-user" (U256.of_int 1_000_000) in
      T.seed_completed_deposit b m user;
      T.apply_op b m user 0 0;
      let reg = Metrics.create () in
      let tracer = Span.create ~capacity:64 () in
      let saved_reg = Metrics.default () and saved_tr = Span.default () in
      Metrics.set_default reg;
      Span.set_default tracer;
      Fun.protect
        ~finally:(fun () ->
          Metrics.set_default saved_reg;
          Span.set_default saved_tr)
        (fun () ->
          let mon = Monitor.create ~metrics:reg (T.monitor_input b) in
          let sb, tb = T.cur b in
          ignore (Monitor.poll mon ~source_block:sb ~target_block:tb);
          ignore (Monitor.poll mon ~source_block:sb ~target_block:tb);
          let snap = Monitor.metrics_snapshot mon in
          let counter name =
            match Metrics.find snap name with
            | Some { Metrics.m_value = Metrics.V_counter n; _ } -> n
            | _ -> Alcotest.fail ("missing counter " ^ name)
          in
          let gauge ?labels name =
            match Metrics.find snap ?labels name with
            | Some { Metrics.m_value = Metrics.V_gauge g; _ } -> g
            | _ -> Alcotest.fail ("missing gauge " ^ name)
          in
          Alcotest.(check int) "polls" 2 (counter "xcw_monitor_polls_total");
          Alcotest.(check (float 1e-9))
            "synced" 1.0 (gauge "xcw_monitor_synced");
          Alcotest.(check (float 1e-9))
            "no pending" 0.0
            (gauge ~labels:[ ("side", "source") ] "xcw_monitor_pending");
          Alcotest.(check bool) "facts cached" true
            (gauge "xcw_monitor_facts_cached" > 0.0);
          let rpc_requests =
            List.fold_left
              (fun acc mt ->
                match (mt.Metrics.m_name, mt.Metrics.m_value) with
                | "xcw_rpc_requests_total", Metrics.V_counter n -> acc + n
                | _ -> acc)
              0 snap
          in
          Alcotest.(check bool) "rpc requests > 0" true (rpc_requests > 0);
          Alcotest.(check bool) "decoder receipts > 0" true
            (counter "xcw_decoder_receipts_total" > 0);
          let poll_spans =
            List.filter
              (fun r -> r.Span.sp_name = "monitor.poll")
              (Span.records tracer)
          in
          Alcotest.(check int) "poll spans" 2 (List.length poll_spans)))

(* With a checkpoint too, so the checkpoint byte and snapshot counters
   are covered: the same alerts, and the same bytes on disk. *)
let monitor_metrics_behaviour_neutral =
  Alcotest.test_case "alerts identical with live and noop registries" `Quick
    (fun () ->
      let run ~durable metrics =
        let b, m = T.make_bridge () in
        let user =
          T.user_with_tokens b m "obs-neutral" (U256.of_int 1_000_000)
        in
        T.seed_completed_deposit b m user;
        let dir = Filename.temp_file "xcw-obs" "" in
        Sys.remove dir;
        let checkpoint =
          if durable then Some (Monitor.Checkpoint.open_ ~dir ()) else None
        in
        let mon = Monitor.create ~metrics ?checkpoint (T.monitor_input b) in
        let alerts =
          List.concat
            (List.mapi
               (fun i op ->
                 T.apply_op b m user i op;
                 let sb, tb = T.cur b in
                 Monitor.poll mon ~source_block:sb ~target_block:tb)
               [ 0; 1; 2; 3 ])
        in
        Option.iter Monitor.Checkpoint.close checkpoint;
        let on_disk =
          if durable then
            List.map
              (fun f ->
                In_channel.with_open_bin (Filename.concat dir f)
                  In_channel.input_all)
              [ "snapshot.bin"; "wal.log" ]
          else []
        in
        (T.alert_keys alerts, on_disk)
      in
      let live = run ~durable:false (Metrics.create ()) in
      let nil = run ~durable:false Metrics.noop in
      Alcotest.(check bool) "same alerts" true (live = nil);
      Alcotest.(check bool) "alerts non-empty" true (fst live <> []);
      let live_ck = run ~durable:true (Metrics.create ()) in
      let nil_ck = run ~durable:true Metrics.noop in
      Alcotest.(check bool) "checkpointed: same alerts" true
        (fst live_ck = fst live && fst nil_ck = fst live);
      Alcotest.(check bool) "checkpointed: same bytes on disk" true
        (snd live_ck = snd nil_ck))

let client_stats_snapshot =
  Alcotest.test_case "cumulative client stats accumulate and reset" `Quick
    (fun () ->
      let b, m = T.make_bridge () in
      let user = T.user_with_tokens b m "obs-stats" (U256.of_int 1_000_000) in
      T.seed_completed_deposit b m user;
      Client.reset_stats ();
      let zero = Client.stats_snapshot () in
      Alcotest.(check int) "retries zero" 0 zero.Client.s_retries;
      Alcotest.(check int) "give-ups zero" 0 zero.Client.s_give_ups;
      (* A receipt-heavy transient plan: retries are certain over a
         whole chain of receipts. *)
      let plan =
        {
          Fault.none with
          Fault.f_receipt = { Fault.p_transient = 0.6; p_timeout = 0.0 };
        }
      in
      let chain = b.Xcw_bridge.Bridge.source.Xcw_bridge.Bridge.chain in
      let client =
        Client.create ~seed:7 ~metrics:Metrics.noop
          (Rpc.create ~seed:7 ~fault:plan ~metrics:Metrics.noop chain)
      in
      List.iter
        (fun (r : Xcw_evm.Types.receipt) ->
          ignore (Client.get_receipt client r.Xcw_evm.Types.r_tx_hash))
        (Chain.all_receipts chain);
      let snap = Client.stats_snapshot () in
      Alcotest.(check bool) "retries happened" true (snap.Client.s_retries > 0);
      Alcotest.(check bool) "backoff accumulated" true
        (snap.Client.s_backoff_seconds > 0.0);
      (* The cumulative snapshot matches the per-client stats when only
         one client ran since the reset. *)
      let per = Client.stats client in
      Alcotest.(check int) "matches per-client" per.Client.s_retries
        snap.Client.s_retries;
      Client.reset_stats ();
      Alcotest.(check int) "reset" 0 (Client.stats_snapshot ()).Client.s_retries)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          counter_basics;
          gauge_basics;
          labels_order_independent;
          kind_mismatch_raises;
          invalid_name_raises;
          snapshot_sorted_and_find;
          noop_is_inert;
        ] );
      ( "histogram",
        [
          histogram_clamps_non_positive;
          histogram_clamps_overflow;
          QCheck_alcotest.to_alcotest histogram_matches_stats;
        ] );
      ( "sinks",
        [
          prometheus_roundtrip;
          prometheus_text_shape;
          json_lines_roundtrip;
          span_json_roundtrip;
          memory_sink_stores;
        ] );
      ( "spans",
        [ span_nesting; span_exception_safe; span_ring_bound; span_noop_inert ]
      );
      ( "pipeline",
        [
          engine_metrics;
          engine_noop_metrics_free;
          plan_noop_metrics_free;
          monitor_metrics;
          monitor_metrics_behaviour_neutral;
          client_stats_snapshot;
        ] );
    ]
