(* Tests for the streaming monitor: incremental decoding, alert
   de-duplication, and detection latency on an attack scenario — the
   observability gap of Figure 1 closed to one polling interval. *)

module U256 = Xcw_uint256.Uint256
module Address = Xcw_evm.Address
module Chain = Xcw_chain.Chain
module Bridge = Xcw_bridge.Bridge
module Detector = Xcw_core.Detector
module Monitor = Xcw_core.Monitor
module Report = Xcw_core.Report
module Facts = Xcw_core.Facts
module Fault = Xcw_rpc.Fault
module Metrics = Xcw_obs.Metrics
module Events = Xcw_bridge.Events
module Client = Xcw_rpc.Client
module T = Xcw_testlib

let u = U256.of_int

(* Shared scenario infrastructure lives in test/testlib (also used by
   the fault-injection suite). *)
let make_bridge = T.make_bridge
let monitor_input = T.monitor_input ?label:None
let user_with_tokens = T.user_with_tokens
let cur = T.cur

let no_alerts_on_benign_traffic =
  Alcotest.test_case "benign flows raise no alerts across polls" `Quick
    (fun () ->
      let b, m = make_bridge () in
      let mon = Monitor.create (monitor_input b) in
      let user = user_with_tokens b m "mon-u1" (u 1000) in
      let d =
        Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
          ~amount:(u 400) ~beneficiary:user
      in
      ignore (Bridge.complete_deposit b ~deposit:d);
      let sb, tb = cur b in
      let alerts = Monitor.poll mon ~source_block:sb ~target_block:tb in
      Alcotest.(check int) "no alerts after a completed deposit" 0
        (List.length alerts);
      (* A withdrawal round-trip is clean too. *)
      let w =
        Bridge.request_withdrawal b ~user ~dst_token:m.Bridge.m_dst_token
          ~amount:(u 100) ~beneficiary:user
      in
      ignore (Bridge.execute_withdrawal b ~withdrawal:w);
      let sb, tb = cur b in
      let alerts2 = Monitor.poll mon ~source_block:sb ~target_block:tb in
      Alcotest.(check int) "no alerts after a completed withdrawal" 0
        (List.length alerts2))

let attack_detected_at_next_poll =
  Alcotest.test_case "a forged withdrawal is alerted at the next poll" `Quick
    (fun () ->
      let b, m = make_bridge () in
      let mon = Monitor.create (monitor_input b) in
      let user = user_with_tokens b m "mon-u2" (u 100_000) in
      let d =
        Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
          ~amount:(u 100_000) ~beneficiary:user
      in
      ignore (Bridge.complete_deposit b ~deposit:d);
      let sb, tb = cur b in
      Alcotest.(check int) "clean before attack" 0
        (List.length (Monitor.poll mon ~source_block:sb ~target_block:tb));
      (* The attack. *)
      Bridge.compromise_validators b ~keys:2;
      let attacker = Address.of_seed "mon-attacker" in
      Chain.fund b.Bridge.source.Bridge.chain attacker (U256.of_tokens ~decimals:18 1);
      Chain.advance_time b.Bridge.source.Bridge.chain 600;
      ignore
        (Bridge.forged_withdrawal b ~attacker ~src_token:m.Bridge.m_src_token
           ~amount:(u 100_000) ~withdrawal_id:777);
      let sb, tb = cur b in
      let alerts = Monitor.poll mon ~source_block:sb ~target_block:tb in
      Alcotest.(check int) "exactly one alert" 1 (List.length alerts);
      let a = List.hd alerts in
      Alcotest.(check string) "rule 8" "8. CCTX_ValidWithdrawal" a.Monitor.al_rule;
      Alcotest.(check bool) "classified as no-correspondence" true
        (a.Monitor.al_anomaly.Report.a_class = Report.No_correspondence);
      Alcotest.(check (float 1.0)) "valued" 100_000.0
        a.Monitor.al_anomaly.Report.a_usd_value;
      (* The same anomaly is not re-alerted. *)
      let alerts2 = Monitor.poll mon ~source_block:sb ~target_block:tb in
      Alcotest.(check int) "no duplicate alerts" 0 (List.length alerts2))

let transient_unmatched_not_poisoning =
  Alcotest.test_case
    "a deposit pending relay alerts once, then the match clears state"
    `Quick (fun () ->
      (* A deposit observed before its completion looks unmatched; the
         monitor's non-monotonic re-evaluation must retract it silently
         once the relay lands (alerts are only for NEW anomalies;
         retractions simply disappear from the report). *)
      let b, m = make_bridge () in
      let mon = Monitor.create (monitor_input b) in
      let user = user_with_tokens b m "mon-u3" (u 500) in
      let d =
        Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
          ~amount:(u 500) ~beneficiary:user
      in
      let sb, tb = cur b in
      let alerts1 = Monitor.poll mon ~source_block:sb ~target_block:tb in
      (* The pending deposit IS reported as unmatched at this point. *)
      Alcotest.(check int) "pending deposit alerted" 1 (List.length alerts1);
      ignore (Bridge.complete_deposit b ~deposit:d);
      let sb, tb = cur b in
      ignore (Monitor.poll mon ~source_block:sb ~target_block:tb);
      match Monitor.last_report mon with
      | Some report ->
          Alcotest.(check int) "report is clean after the match" 0
            (Report.total_anomalies report)
      | None -> Alcotest.fail "no report")

let incremental_decode_caches =
  Alcotest.test_case "receipts are decoded exactly once across polls" `Quick
    (fun () ->
      let b, m = make_bridge () in
      let mon = Monitor.create (monitor_input b) in
      let user = user_with_tokens b m "mon-u4" (u 100) in
      ignore
        (Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
           ~amount:(u 100) ~beneficiary:user);
      let sb, tb = cur b in
      ignore (Monitor.poll mon ~source_block:sb ~target_block:tb);
      let facts_after_first = Monitor.facts_cached mon in
      ignore (Monitor.poll mon ~source_block:sb ~target_block:tb);
      Alcotest.(check int) "no re-decoding" facts_after_first
        (Monitor.facts_cached mon);
      Alcotest.(check int) "two polls" 2 (Monitor.polls mon))

let block_cursor_respected =
  Alcotest.test_case "receipts beyond the cursor stay invisible" `Quick
    (fun () ->
      let b, m = make_bridge () in
      let mon = Monitor.create (monitor_input b) in
      let user = user_with_tokens b m "mon-u5" (u 100) in
      let sb0, tb0 = cur b in
      ignore
        (Bridge.direct_token_transfer_to_bridge b ~user
           ~src_token:m.Bridge.m_src_token ~amount:(u 100));
      (* Poll with the OLD cursor: the anomaly is not yet visible. *)
      let alerts = Monitor.poll mon ~source_block:sb0 ~target_block:tb0 in
      Alcotest.(check int) "not seen yet" 0 (List.length alerts);
      let sb, tb = cur b in
      let alerts2 = Monitor.poll mon ~source_block:sb ~target_block:tb in
      Alcotest.(check int) "seen at the new cursor" 1 (List.length alerts2))

let final_report_matches_batch_detector =
  Alcotest.test_case "monitor's final report equals the batch detector's"
    `Quick (fun () ->
      let b, m = make_bridge () in
      let input = monitor_input b in
      let mon = Monitor.create input in
      let user = user_with_tokens b m "mon-u6" (u 10_000) in
      (* Mixed traffic: a complete round-trip, a stuck withdrawal and a
         direct transfer. *)
      let d =
        Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
          ~amount:(u 5_000) ~beneficiary:user
      in
      ignore (Bridge.complete_deposit b ~deposit:d);
      Chain.advance_time b.Bridge.target.Bridge.chain 600;
      let w =
        Bridge.request_withdrawal b ~user ~dst_token:m.Bridge.m_dst_token
          ~amount:(u 1_000) ~beneficiary:user
      in
      ignore (Bridge.execute_withdrawal b ~withdrawal:w);
      ignore
        (Bridge.request_withdrawal b ~user ~dst_token:m.Bridge.m_dst_token
           ~amount:(u 500) ~beneficiary:user);
      ignore
        (Bridge.direct_token_transfer_to_bridge b ~user
           ~src_token:m.Bridge.m_src_token ~amount:(u 100));
      (* Poll in two steps, then compare against a one-shot detector. *)
      let sb, tb = cur b in
      ignore (Monitor.poll mon ~source_block:(sb / 2) ~target_block:(tb / 2));
      ignore (Monitor.poll mon ~source_block:sb ~target_block:tb);
      let batch = Detector.run input in
      match Monitor.last_report mon with
      | Some streamed ->
          Alcotest.(check bool) "identical reports" true
            (T.report_signature streamed
            = T.report_signature batch.Xcw_core.Detector.report)
      | None -> Alcotest.fail "no report")

let cursor_out_of_order_regression =
  Alcotest.test_case "cursor does not skip out-of-order receipts" `Quick
    (fun () ->
      (* Regression: the old cursor advanced by [seen + decoded count],
         so a receipt above the block cursor sitting BEFORE already-
         decoded ones in list order was skipped forever.  Blocks
         [1;2;10;3;4]: polling up to block 4 must decode indices
         0,1,3,4 and still deliver index 2 when the cursor reaches
         block 10. *)
      let blocks = [| 1; 2; 10; 3; 4 |] in
      let c = Monitor.Cursor.create () in
      let take up_to =
        Monitor.Cursor.take c
          ~block_of:(fun i -> blocks.(i))
          ~len:(Array.length blocks) ~up_to
      in
      Alcotest.(check (list int)) "blocks <= 4 decoded" [ 0; 1; 3; 4 ] (take 4);
      Alcotest.(check int) "four decoded" 4 (Monitor.Cursor.decoded_count c);
      Alcotest.(check (list int)) "repolling decodes nothing" [] (take 4);
      Alcotest.(check (list int)) "the held-back receipt arrives later" [ 2 ]
        (take 10);
      Alcotest.(check int) "all decoded exactly once" 5
        (Monitor.Cursor.decoded_count c))

(* Randomized differential test: on arbitrary generic-bridge traffic,
   the incremental monitor and a from-scratch monitor must emit the
   same alerts and hold the same on-demand report at every staged
   poll, and converge to the batch detector's report. *)
let prop_incremental_equals_scratch =
  QCheck.Test.make ~count:(T.qcount 8)
    ~name:"incremental monitor = from-scratch monitor = batch detector"
    (T.arb_ops ~max_len:6)
    (fun ops ->
      let b, m = make_bridge () in
      let input = monitor_input b in
      let inc = Monitor.create ~incremental:true input in
      let scr = Monitor.create ~incremental:false input in
      let user = user_with_tokens b m "mon-prop" (u 1_000_000) in
      T.seed_completed_deposit b m user;
      let ok = ref true in
      let same_reports () =
        match (Monitor.last_report inc, Monitor.last_report scr) with
        | Some r1, Some r2 ->
            if T.report_signature r1 <> T.report_signature r2 then ok := false
        | _ -> ok := false
      in
      List.iteri
        (fun i op ->
          T.apply_op b m user i op;
          let sb, tb = cur b in
          let a1 = Monitor.poll inc ~source_block:sb ~target_block:tb in
          let a2 = Monitor.poll scr ~source_block:sb ~target_block:tb in
          if T.alert_keys a1 <> T.alert_keys a2 then ok := false;
          same_reports ())
        ops;
      let batch = Detector.run input in
      (match Monitor.last_report inc with
      | Some r1 ->
          if T.report_signature r1 <> T.report_signature batch.Detector.report
          then ok := false
      | None -> ok := false);
      !ok)

(* The monitor keeps per-side fact and trace-gap counts and a cached
   decode-error list instead of folding over every entry per poll.
   Drive them through catch-up, polls, reorg rewinds that drop the
   receipt carrying a decode error, and a checkpoint restart, checking
   the counts against the cached facts at every step and the decode
   errors against a from-scratch monitor at the end. *)
let bookkeeping_survives_reorgs_and_restart =
  Alcotest.test_case
    "fact counts and decode errors track reorg rewinds and a restart" `Quick
    (fun () ->
      let b, m = make_bridge ~beneficiary_repr:Events.B_bytes32 () in
      let input = monitor_input b in
      (* Target-side reorgs of depth 1-3, plus receipt faults without
         retries, so a rewind can leave the dropped receipts pending. *)
      let plan =
        {
          Fault.none with
          Fault.f_reorg_prob = 0.5;
          f_reorg_depth = 3;
          f_receipt = { Fault.p_transient = 0.3; p_timeout = 0.0 };
        }
      in
      let faulty_input =
        {
          input with
          Detector.i_target_fault = Some plan;
          i_client_policy = { Client.default_policy with Client.p_max_attempts = 1 };
          i_rpc_seed = 11;
        }
      in
      let dir = Filename.temp_file "xcw-monitor" "" in
      Sys.remove dir;
      let scr = Monitor.create ~incremental:false input in
      let open_monitor () =
        let ck = Monitor.Checkpoint.open_ ~snapshot_every:2 ~dir () in
        let mon =
          Monitor.create ~metrics:(Metrics.create ()) ~checkpoint:ck faulty_input
        in
        (ck, mon)
      in
      let ck1, mon1 = open_monitor () in
      let unparseable_in_facts mon =
        List.length
          (List.filter
             (fun f ->
               Facts.relation_name f = Facts.r_bridge_event_decode_failure)
             (Monitor.cached_facts mon))
      in
      let unparseable_rows mon =
        match Monitor.last_report mon with
        | None -> Alcotest.fail "no report"
        | Some r ->
            List.concat_map
              (fun row ->
                List.filter_map
                  (fun a ->
                    if a.Report.a_class = Report.Unparseable_beneficiary then
                      Some (row.Report.rr_rule, a.Report.a_tx_hash,
                            a.Report.a_detail)
                    else None)
                  row.Report.rr_anomalies)
              r.Report.rows
      in
      let check_counts mon what =
        Alcotest.(check int)
          (what ^ ": facts_cached = |cached_facts|")
          (List.length (Monitor.cached_facts mon))
          (Monitor.facts_cached mon);
        Alcotest.(check int)
          (what ^ ": one unparseable row per decoded marker")
          (unparseable_in_facts mon)
          (List.length (unparseable_rows mon))
      in
      let poll mon =
        let sb, tb = cur b in
        ignore (Monitor.poll mon ~source_block:sb ~target_block:tb);
        ignore (Monitor.poll scr ~source_block:sb ~target_block:tb);
        check_counts mon (Printf.sprintf "poll %d" (Monitor.polls mon))
      in
      let user = user_with_tokens b m "mon-book" (u 1_000_000) in
      T.seed_completed_deposit b m user;
      poll mon1;
      List.iteri (fun i op -> T.apply_op b m user i op; poll mon1) [ 0; 2 ];
      (* The newest target block carries the decode error, so any
         target reorg drops it. *)
      ignore
        (Bridge.request_withdrawal ~beneficiary_padding:(`Garbage "mon-g") b
           ~user ~dst_token:m.Bridge.m_dst_token ~amount:(u 30)
           ~beneficiary:user);
      let seen = ref false and dropped = ref false in
      while (not !dropped) && Monitor.polls mon1 < 100 do
        poll mon1;
        let decoded = unparseable_in_facts mon1 > 0 in
        if !seen && not decoded then dropped := true;
        seen := !seen || decoded
      done;
      Alcotest.(check bool) "a rewind dropped the decode error" true !dropped;
      T.apply_op b m user 9 1;
      poll mon1;
      Monitor.Checkpoint.close ck1;
      (* Restart from the snapshot and WAL tail. *)
      let ck2, mon2 = open_monitor () in
      Alcotest.(check int) "recovered facts_cached = |cached_facts|"
        (List.length (Monitor.cached_facts mon2))
        (Monitor.facts_cached mon2);
      poll mon2;
      let polls = ref 1 in
      while (not (Monitor.health mon2).Monitor.h_synced) && !polls < 100 do
        incr polls;
        poll mon2
      done;
      Alcotest.(check bool) "synced after the restart" true
        (Monitor.health mon2).Monitor.h_synced;
      let gauge =
        match
          Metrics.find (Monitor.metrics_snapshot mon2) "xcw_monitor_facts_cached"
        with
        | Some { Metrics.m_value = Metrics.V_gauge g; _ } -> int_of_float g
        | _ -> Alcotest.fail "missing xcw_monitor_facts_cached"
      in
      Alcotest.(check int) "gauge = |cached_facts|"
        (List.length (Monitor.cached_facts mon2))
        gauge;
      Alcotest.(check int) "one decode error" 1 (List.length (unparseable_rows mon2));
      Alcotest.(check (list (triple string string string)))
        "unparseable-beneficiary row = from-scratch monitor's"
        (unparseable_rows scr) (unparseable_rows mon2);
      Monitor.Checkpoint.close ck2)

let () =
  Alcotest.run "monitor"
    [
      ( "streaming",
        [
          no_alerts_on_benign_traffic;
          attack_detected_at_next_poll;
          transient_unmatched_not_poisoning;
          incremental_decode_caches;
          block_cursor_respected;
          final_report_matches_batch_detector;
          cursor_out_of_order_regression;
          bookkeeping_survives_reorgs_and_restart;
          QCheck_alcotest.to_alcotest prop_incremental_equals_scratch;
        ] );
    ]
