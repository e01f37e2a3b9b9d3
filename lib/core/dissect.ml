(** Dissection of the derived Datalog relations into a classified
    anomaly report (the logic behind Tables 3 and 4).

    Shared by the batch {!Detector} and the streaming {!Monitor}: both
    evaluate the rules into a database.  The detector calls {!dissect}
    for the whole {!Report.t}; a monitor poll calls {!alert_rows}, which
    builds only the rows an alert can come from and leaves out the cctx
    dataset and attack tables, whose size and pricing cost follow the
    history. *)

module Engine = Xcw_datalog.Engine
open Xcw_datalog.Ast

(* --- tuple field accessors ----------------------------------------- *)

let str_at (t : const array) i =
  match t.(i) with Str s -> s | Int n -> string_of_int n

let int_at (t : const array) i =
  match t.(i) with Int n -> n | Str _ -> invalid_arg "int_at: string field"

let alert_rows ~(config : Config.t) ~(pricing : Pricing.t)
    ~(first_window_withdrawal_id : int option)
    ~(decode_errors : Decoder.decode_error list) ~(db : Engine.db) =
  let src_chain_id = config.Config.source_chain_id in
  let dst_chain_id = config.Config.target_chain_id in
  let facts_of = Engine.facts db in
  let count_of = Engine.fact_count db in
  let membership pred positions =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun tuple ->
        List.iter (fun p -> Hashtbl.replace tbl (str_at tuple p) ()) positions)
      (facts_of pred);
    fun key -> Hashtbl.mem tbl key
  in
  let usd = Pricing.usd_value_str pricing in
  (* Row 2 anomalies: transfers into the bridge without a bridge event,
     classified by token reputation (Findings 1 and 2). *)
  let transfer_to_bridge_anomalies =
    List.map
      (fun t ->
        let chain_id = int_at t 1 in
        let token = str_at t 2 in
        let amount = str_at t 4 in
        let value = usd ~chain_id ~token amount in
        let reputable = Pricing.is_reputable pricing ~chain_id ~token in
        {
          Report.a_class =
            (if reputable then Report.Direct_transfer_to_bridge
             else Report.Phishing_token_transfer);
          a_tx_hash = str_at t 0;
          a_chain_id = chain_id;
          a_usd_value = value;
          a_detail =
            Printf.sprintf "token %s, %s units sent to bridge by %s" token
              amount (str_at t 3);
        })
      (facts_of Rules.r_transfer_to_bridge_no_event)
  in
  let sc_deposit_no_escrow_anomalies =
    List.map
      (fun t ->
        {
          Report.a_class = Report.Event_without_escrow;
          a_tx_hash = str_at t 0;
          a_chain_id = src_chain_id;
          a_usd_value = usd ~chain_id:src_chain_id ~token:(str_at t 2) (str_at t 3);
          a_detail =
            Printf.sprintf "TokenDeposited %s without escrow movement" (str_at t 1);
        })
      (facts_of Rules.r_sc_deposit_event_no_escrow)
  in
  (* Rows 4/8: unmatched records with cause classification (Table 4). *)
  let finality_dep_member = membership Rules.r_deposit_finality_violation [ 0; 1 ] in
  let finality_wdr_member = membership Rules.r_withdrawal_finality_violation [ 0; 1 ] in
  let mapping_dep_member = membership Rules.r_deposit_mapping_violation [ 0 ] in
  let mapping_wdr_member = membership Rules.r_withdrawal_mapping_violation [ 0 ] in
  let ben_mismatch_dep_member = membership Rules.r_deposit_beneficiary_mismatch [ 0; 1 ] in
  let ben_mismatch_wdr_member = membership Rules.r_withdrawal_beneficiary_mismatch [ 0; 1 ] in
  (* unmatched deposit tuples: (tx, ts, amt, did, token) *)
  let classify_unmatched_deposit ~chain_id tuple =
    let tx = str_at tuple 0 in
    let token = str_at tuple 4 in
    let cls =
      if finality_dep_member tx then Report.Finality_violation
      else if mapping_dep_member tx then Report.Token_mapping_violation
      else if ben_mismatch_dep_member tx then Report.Invalid_beneficiary_fp
      else Report.No_correspondence
    in
    {
      Report.a_class = cls;
      a_tx_hash = tx;
      a_chain_id = chain_id;
      a_usd_value = usd ~chain_id ~token (str_at tuple 2);
      a_detail = Printf.sprintf "deposit_id %d (token %s)" (int_at tuple 3) token;
    }
  in
  let deposit_anomalies =
    List.map (classify_unmatched_deposit ~chain_id:src_chain_id)
      (facts_of Rules.r_unmatched_sc_native_deposit)
    @ List.map (classify_unmatched_deposit ~chain_id:src_chain_id)
        (facts_of Rules.r_unmatched_sc_erc20_deposit)
    @ List.map (classify_unmatched_deposit ~chain_id:dst_chain_id)
        (facts_of Rules.r_unmatched_tc_deposit)
  in
  (* Withdrawal ids whose T-side event had an unparseable beneficiary:
     the S-side execution exists but can never match (Section 5.2.2's
     three false positives). *)
  let unparseable_wids =
    List.filter_map (fun e -> e.Decoder.err_withdrawal_id) decode_errors
  in
  (* unmatched withdrawal tuples: (tx, ts, amt, wid, ben, token). *)
  let classify_unmatched_withdrawal ~side tuple =
    let tx = str_at tuple 0 in
    let wid = int_at tuple 3 in
    let token = str_at tuple 5 in
    (* Withdrawals are priced on the source-chain token. *)
    let value = usd ~chain_id:src_chain_id ~token (str_at tuple 2) in
    let cls =
      if finality_wdr_member tx then Report.Finality_violation
      else if mapping_wdr_member tx then Report.Token_mapping_violation
      else if ben_mismatch_wdr_member tx then Report.Invalid_beneficiary_fp
      else if side = `S && List.mem wid unparseable_wids then
        Report.Invalid_beneficiary_fp
      else
        match (side, first_window_withdrawal_id) with
        | `S, Some first when wid < first -> Report.Pre_window_fp
        | _ -> Report.No_correspondence
    in
    {
      Report.a_class = cls;
      a_tx_hash = tx;
      a_chain_id = (match side with `S -> src_chain_id | `T -> dst_chain_id);
      a_usd_value = value;
      a_detail = Printf.sprintf "withdrawal_id %d beneficiary %s" wid (str_at tuple 4);
    }
  in
  let withdrawal_anomalies =
    List.map (classify_unmatched_withdrawal ~side:`T)
      (facts_of Rules.r_unmatched_tc_native_withdrawal)
    @ List.map (classify_unmatched_withdrawal ~side:`T)
        (facts_of Rules.r_unmatched_tc_erc20_withdrawal)
    @ List.map (classify_unmatched_withdrawal ~side:`S)
        (facts_of Rules.r_unmatched_sc_withdrawal)
  in
  (* Row 6: decode errors (unparseable 32-byte beneficiaries on T) and
     failed exploit probes (reverted transactions to the bridge). *)
  let unparseable_anomalies =
    List.filter_map
      (fun (e : Decoder.decode_error) ->
        if
          String.length e.Decoder.err_detail >= 11
          && String.sub e.Decoder.err_detail 0 11 = "unparseable"
        then
          Some
            {
              Report.a_class = Report.Unparseable_beneficiary;
              a_tx_hash = e.Decoder.err_tx_hash;
              a_chain_id = e.Decoder.err_chain_id;
              a_usd_value = 0.0;
              a_detail = e.Decoder.err_detail;
            }
        else None)
      decode_errors
  in
  let failed_exploit_anomalies =
    List.filter_map
      (fun t ->
        let chain_id = int_at t 1 in
        if chain_id = dst_chain_id then
          Some
            {
              Report.a_class = Report.Failed_exploit_attempt;
              a_tx_hash = str_at t 0;
              a_chain_id = chain_id;
              a_usd_value = 0.0;
              a_detail = Printf.sprintf "reverted bridge call from %s" (str_at t 2);
            }
        else None)
      (facts_of Rules.r_reverted_bridge_interaction)
  in
  let tc_withdraw_no_escrow_anomalies =
    List.map
      (fun t ->
        {
          Report.a_class = Report.Event_without_escrow;
          a_tx_hash = str_at t 0;
          a_chain_id = dst_chain_id;
          a_usd_value = 0.0;
          a_detail =
            Printf.sprintf "TokenWithdrew %d without escrow (token %s)"
              (int_at t 1) (str_at t 2);
        })
      (facts_of Rules.r_tc_withdraw_event_no_escrow)
  in
  (* Row 7 anomalies: transfers out of the bridge without events. *)
  let transfer_from_bridge_anomalies =
    List.map
      (fun t ->
        let chain_id = int_at t 1 in
        let token = str_at t 2 in
        let reputable = Pricing.is_reputable pricing ~chain_id ~token in
        {
          Report.a_class =
            (if reputable then Report.Event_without_escrow
             else Report.Phishing_token_transfer);
          a_tx_hash = str_at t 0;
          a_chain_id = chain_id;
          a_usd_value = usd ~chain_id ~token (str_at t 4);
          a_detail = Printf.sprintf "token %s left bridge toward %s" token (str_at t 3);
        })
      (facts_of Rules.r_transfer_from_bridge_no_event)
  in
  (* --- pessimistic-accounting tables (PR 10) ------------------------ *)
  (* Exit-bridge amounts are small ints in token base units; the
     workload prices exit tokens at $1 with 0 decimals, so the USD
     value is the amount itself. *)
  let stale_root_hits =
    List.map
      (fun t ->
        let leaf = int_at t 2 and amt = int_at t 4 in
        {
          Report.ah_tx_hash = str_at t 0;
          ah_chain_id = int_at t 1;
          ah_id = leaf;
          ah_usd_value = float_of_int amt;
          ah_detail =
            Printf.sprintf
              "leaf %d claimed %d of %s against the superseded epoch-%d root"
              leaf amt (str_at t 3) (int_at t 5);
        })
      (facts_of Rules.r_acc_stale_root_claim)
  in
  let forged_exit_hits =
    List.map
      (fun t ->
        let leaf = int_at t 2 and amt = int_at t 4 in
        {
          Report.ah_tx_hash = str_at t 0;
          ah_chain_id = int_at t 1;
          ah_id = leaf;
          ah_usd_value = float_of_int amt;
          ah_detail =
            Printf.sprintf "leaf %d claimed %d of %s with a non-verifying proof"
              leaf amt (str_at t 3);
        })
      (facts_of Rules.r_acc_forged_exit_proof)
  in
  let divergence_hits =
    List.map
      (fun t ->
        let epoch = int_at t 3 in
        {
          Report.ah_tx_hash = str_at t 0;
          ah_chain_id = int_at t 1;
          ah_id = epoch;
          ah_usd_value = 0.0;
          ah_detail =
            Printf.sprintf
              "validator %s attested root %s for chain-%d epoch %d, sealed %s"
              (str_at t 4) (str_at t 5) (int_at t 2) epoch (str_at t 6);
        })
      (facts_of Rules.r_acc_root_divergence)
  in
  let net_outflow_hits =
    List.map
      (fun t ->
        let amt = int_at t 4 in
        {
          Report.ah_tx_hash = str_at t 0;
          ah_chain_id = int_at t 1;
          ah_id = 0;
          ah_usd_value = float_of_int amt;
          ah_detail =
            Printf.sprintf
              "claim of %d draws on over-claimed pool (chain %d, token %s)"
              amt (int_at t 2) (str_at t 3);
        })
      (facts_of Rules.r_acc_outflow_tx)
  in
  let slashing_evasion_hits =
    List.map
      (fun t ->
        let amt = int_at t 3 in
        {
          Report.ah_tx_hash = str_at t 0;
          ah_chain_id = int_at t 1;
          ah_id = 0;
          ah_usd_value = float_of_int amt;
          ah_detail =
            Printf.sprintf
              "divergent validator %s withdrew stake %d without being slashed"
              (str_at t 2) amt;
        })
      (facts_of Rules.r_acc_slashing_evasion)
  in
  let acc_rows =
    [
      {
        Report.xr_class = Report.Stale_root_claim;
        xr_rule = Rules.r_acc_stale_root_claim;
        xr_hits = stale_root_hits;
      };
      {
        Report.xr_class = Report.Forged_exit_proof;
        xr_rule = Rules.r_acc_forged_exit_proof;
        xr_hits = forged_exit_hits;
      };
      {
        Report.xr_class = Report.Root_divergence;
        xr_rule = Rules.r_acc_root_divergence;
        xr_hits = divergence_hits;
      };
      {
        Report.xr_class = Report.Exit_net_outflow;
        xr_rule = Rules.r_acc_outflow_tx;
        xr_hits = net_outflow_hits;
      };
      {
        Report.xr_class = Report.Slashing_evasion;
        xr_rule = Rules.r_acc_slashing_evasion;
        xr_hits = slashing_evasion_hits;
      };
    ]
  in
  let rows =
    [
      {
        Report.rr_rule = "1. SC_ValidNativeTokenDeposit";
        rr_captured = count_of Rules.r_sc_valid_native_deposit;
        rr_anomalies = [];
      };
      {
        Report.rr_rule = "2. SC_ValidERC20TokenDeposit";
        rr_captured = count_of Rules.r_sc_valid_erc20_deposit;
        rr_anomalies = transfer_to_bridge_anomalies @ sc_deposit_no_escrow_anomalies;
      };
      {
        Report.rr_rule = "3. TC_ValidERC20TokenDeposit";
        rr_captured = count_of Rules.r_tc_valid_erc20_deposit;
        rr_anomalies = [];
      };
      {
        Report.rr_rule = "4. CCTX_ValidDeposit";
        rr_captured = count_of Rules.r_cctx_valid_deposit;
        rr_anomalies = deposit_anomalies;
      };
      {
        Report.rr_rule = "5. TC_ValidNativeTokenWithdrawal";
        rr_captured = count_of Rules.r_tc_valid_native_withdrawal;
        rr_anomalies = [];
      };
      {
        Report.rr_rule = "6. TC_ValidERC20TokenWithdrawal";
        rr_captured = count_of Rules.r_tc_valid_erc20_withdrawal;
        rr_anomalies =
          unparseable_anomalies @ failed_exploit_anomalies
          @ tc_withdraw_no_escrow_anomalies;
      };
      {
        Report.rr_rule = "7. SC_ValidERC20TokenWithdrawal";
        rr_captured = count_of Rules.r_sc_valid_erc20_withdrawal;
        rr_anomalies = transfer_from_bridge_anomalies;
      };
      {
        Report.rr_rule = "8. CCTX_ValidWithdrawal";
        rr_captured = count_of Rules.r_cctx_valid_withdrawal;
        rr_anomalies = withdrawal_anomalies;
      };
    ]
  in
  (rows, acc_rows)

let dissect ~label ~(config : Config.t) ~(pricing : Pricing.t)
    ~(first_window_withdrawal_id : int option)
    ~(decode_errors : Decoder.decode_error list) ~(db : Engine.db)
    ?(decode_seconds = 0.0) ?(eval_seconds = 0.0)
    ?(simulated_rpc_seconds = 0.0) ?total_facts () : Report.t =
  let rows, acc_rows =
    alert_rows ~config ~pricing ~first_window_withdrawal_id ~decode_errors ~db
  in
  let src_chain_id = config.Config.source_chain_id in
  let dst_chain_id = config.Config.target_chain_id in
  let facts_of = Engine.facts db in
  let usd = Pricing.usd_value_str pricing in
  (* --- cctx dataset -------------------------------------------------- *)
  let cctx_deposits =
    List.map
      (fun t ->
        let src_token = str_at t 5 in
        {
          Report.c_kind = `Deposit;
          c_src_tx = str_at t 0;
          c_dst_tx = str_at t 1;
          c_id = int_at t 2;
          c_amount = str_at t 8;
          c_token = src_token;
          c_beneficiary = str_at t 7;
          c_usd_value = usd ~chain_id:src_chain_id ~token:src_token (str_at t 8);
          c_start_ts = int_at t 9;
          c_end_ts = int_at t 10;
        })
      (facts_of Rules.r_cctx_valid_deposit)
  in
  let cctx_withdrawals =
    List.map
      (fun t ->
        let src_token = str_at t 5 in
        {
          Report.c_kind = `Withdrawal;
          c_src_tx = str_at t 0;
          c_dst_tx = str_at t 1;
          c_id = int_at t 2;
          c_amount = str_at t 8;
          c_token = src_token;
          c_beneficiary = str_at t 7;
          c_usd_value = usd ~chain_id:src_chain_id ~token:src_token (str_at t 8);
          c_start_ts = int_at t 9;
          c_end_ts = int_at t 10;
        })
      (facts_of Rules.r_cctx_valid_withdrawal)
  in
  (* --- attack-pack tables (2023 hack corpus) ------------------------ *)
  (* Pre-window S-side releases have a legitimate (uncaptured) T-side
     request; exclude them from the forged-proof evidence exactly as
     rule 8's dissection classifies them as FPs. *)
  let pre_window wid =
    match first_window_withdrawal_id with
    | Some first -> wid < first
    | None -> false
  in
  let forged_proof_hits =
    List.filter_map
      (fun t ->
        let wid = int_at t 1 in
        if pre_window wid then None
        else
          let token = str_at t 3 and amt = str_at t 4 in
          Some
            {
              Report.ah_tx_hash = str_at t 0;
              ah_chain_id = src_chain_id;
              ah_id = wid;
              ah_usd_value = usd ~chain_id:src_chain_id ~token amt;
              ah_detail =
                Printf.sprintf
                  "withdrawal_id %d released %s of %s to %s, never requested on T"
                  wid amt token (str_at t 2);
            })
      (facts_of Rules.r_forged_proof_withdrawal)
  in
  let takeover_hits =
    List.map
      (fun t ->
        let wid = int_at t 2 in
        let token = str_at t 3 in
        let amt_t = str_at t 4 and amt_s = str_at t 5 in
        {
          Report.ah_tx_hash = str_at t 1;
          ah_chain_id = src_chain_id;
          ah_id = wid;
          ah_usd_value = usd ~chain_id:src_chain_id ~token amt_s;
          ah_detail =
            Printf.sprintf
              "withdrawal_id %d re-signed: %s requested on T, %s released on S"
              wid amt_t amt_s;
        })
      (facts_of Rules.r_validator_takeover_withdrawal)
  in
  let unauthorized_mint_hits =
    List.map
      (fun t ->
        let did = int_at t 1 in
        let token = str_at t 3 and amt = str_at t 4 in
        {
          Report.ah_tx_hash = str_at t 0;
          ah_chain_id = dst_chain_id;
          ah_id = did;
          ah_usd_value = usd ~chain_id:dst_chain_id ~token amt;
          ah_detail =
            Printf.sprintf "deposit_id %d minted %s of %s with no lock on S"
              did amt token;
        })
      (facts_of Rules.r_unauthorized_mint)
  in
  let inconsistent_event_hits =
    List.map
      (fun t ->
        let did = int_at t 2 in
        let token = str_at t 3 in
        let amt_s = str_at t 4 and amt_t = str_at t 5 in
        {
          Report.ah_tx_hash = str_at t 1;
          ah_chain_id = dst_chain_id;
          ah_id = did;
          ah_usd_value = usd ~chain_id:dst_chain_id ~token amt_t;
          ah_detail =
            Printf.sprintf "deposit_id %d locked %s on S but minted %s on T"
              did amt_s amt_t;
        })
      (facts_of Rules.r_inconsistent_deposit_event)
  in
  let attack_rows =
    [
      {
        Report.ar_class = Report.Forged_proof;
        ar_rule = Rules.r_forged_proof_withdrawal;
        ar_hits = forged_proof_hits;
      };
      {
        Report.ar_class = Report.Validator_takeover;
        ar_rule = Rules.r_validator_takeover_withdrawal;
        ar_hits = takeover_hits;
      };
      {
        Report.ar_class = Report.Unauthorized_mint;
        ar_rule = Rules.r_unauthorized_mint;
        ar_hits = unauthorized_mint_hits;
      };
      {
        Report.ar_class = Report.Inconsistent_event;
        ar_rule = Rules.r_inconsistent_deposit_event;
        ar_hits = inconsistent_event_hits;
      };
    ]
  in
  {
    Report.bridge_name = label;
    rows;
    attack_rows;
    acc_rows;
    cctxs = cctx_deposits @ cctx_withdrawals;
    total_facts =
      (match total_facts with Some n -> n | None -> Engine.total_tuples db);
    decode_seconds;
    eval_seconds;
    simulated_rpc_seconds;
  }
