(** The cross-chain rules — phase 3 of XChainWatcher (paper Section 3.3).

    The rules themselves live in [rules/cross_chain_rules.dl]; the
    build embeds that file as [Rules_dl.source] and this module parses
    it once, at startup.  What stays here is what the [.dl] cannot say:
    the relation names other modules query, and the aggregates. *)

(* Derived relation names (exported for querying). *)
let r_sc_valid_native_deposit = "sc_valid_native_token_deposit"
let r_sc_valid_erc20_deposit = "sc_valid_erc20_token_deposit"
let r_tc_valid_erc20_deposit = "tc_valid_erc20_token_deposit"
let r_cctx_valid_deposit = "cctx_valid_deposit"
let r_tc_valid_native_withdrawal = "tc_valid_native_token_withdrawal"
let r_tc_valid_erc20_withdrawal = "tc_valid_erc20_token_withdrawal"
let r_sc_valid_erc20_withdrawal = "sc_valid_erc20_token_withdrawal"
let r_cctx_valid_withdrawal = "cctx_valid_withdrawal"

let r_transfer_to_bridge_no_event = "transfer_to_bridge_no_event"
let r_transfer_from_bridge_no_event = "transfer_from_bridge_no_event"
let r_sc_deposit_event_no_escrow = "sc_deposit_event_no_escrow"
let r_tc_withdraw_event_no_escrow = "tc_withdraw_event_no_escrow"
let r_unmatched_sc_native_deposit = "unmatched_sc_native_deposit"
let r_unmatched_sc_erc20_deposit = "unmatched_sc_erc20_deposit"
let r_unmatched_tc_deposit = "unmatched_tc_deposit"
let r_unmatched_tc_native_withdrawal = "unmatched_tc_native_withdrawal"
let r_unmatched_tc_erc20_withdrawal = "unmatched_tc_erc20_withdrawal"
let r_unmatched_sc_withdrawal = "unmatched_sc_withdrawal"
let r_deposit_finality_violation = "deposit_finality_violation"
let r_withdrawal_finality_violation = "withdrawal_finality_violation"
let r_deposit_mapping_violation = "deposit_mapping_violation"
let r_withdrawal_mapping_violation = "withdrawal_mapping_violation"
let r_deposit_beneficiary_mismatch = "deposit_beneficiary_mismatch"
let r_withdrawal_beneficiary_mismatch = "withdrawal_beneficiary_mismatch"
let r_reverted_bridge_interaction = "reverted_bridge_interaction"

(* Attack-pack relations (2023 hack corpus; DESIGN.md §12). *)
let r_forged_proof_withdrawal = "forged_proof_withdrawal"
let r_validator_takeover_withdrawal = "validator_takeover_withdrawal"
let r_unauthorized_mint = "unauthorized_mint"
let r_inconsistent_deposit_event = "inconsistent_deposit_event"

(* Pessimistic-accounting relations (DESIGN.md §15). *)
let r_exit_deposit_total = "exit_deposit_total"
let r_exit_claim_total = "exit_claim_total"
let r_acc_outflow_violation = "acc_outflow_violation"
let r_acc_outflow_tx = "acc_outflow_tx"
let r_acc_forged_exit_proof = "acc_forged_exit_proof"
let r_acc_stale_root_claim = "acc_stale_root_claim"
let r_acc_root_divergence = "acc_root_divergence"
let r_acc_slashing_evasion = "acc_slashing_evasion"

let zero_addr = "0x0000000000000000000000000000000000000000"

(* exit_deposit_total(origin_chain, token, total): summed deposits per
   (origin chain, token) — grouped over exit_deposit's chain_id (1) and
   token (4) cells, summing amount (5).  exit_claim_total groups claims
   by the origin chain they draw on (6) and token (4). *)
let aggregates : Xcw_datalog.Engine.aggregate list =
  Xcw_datalog.Engine.
    [
      { agg_pred = r_exit_deposit_total; agg_source = Facts.r_exit_deposit;
        agg_group_by = [ 1; 4 ]; agg_sum = 5 };
      { agg_pred = r_exit_claim_total; agg_source = Facts.r_exit_claim;
        agg_group_by = [ 6; 4 ]; agg_sum = 5 };
    ]

let all_rules =
  try Xcw_datalog.Parser.parse_program Rules_dl.source
  with Xcw_datalog.Parser.Parse_error { line; col; message } ->
    failwith
      (Printf.sprintf "rules/cross_chain_rules.dl:%d:%d: %s" line col message)

let program : Xcw_datalog.Ast.program = { rules = all_rules }

let rule_count = List.length all_rules
