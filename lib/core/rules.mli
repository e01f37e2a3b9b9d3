(** The cross-chain rules — phase 3 of XChainWatcher (paper Section
    3.3): rules 1–8 model expected bridge behaviour, and the auxiliary
    rules dissect what the core rules fail to capture (Tables 3/4).
    The rules are written once, in [rules/cross_chain_rules.dl]; the
    build embeds that file and {!all_rules} is its parse.  Relation
    names are exported for querying the evaluated database. *)

(** {1 Core rules (paper rules 1-8)} *)

val r_sc_valid_native_deposit : string
(** Rule 1 head: [(tx, ts, src_chain, dst_chain, src_token, dst_token,
    beneficiary, amount, deposit_id)]. *)

val r_sc_valid_erc20_deposit : string
(** Rule 2 head; same shape as rule 1. *)

val r_tc_valid_erc20_deposit : string
(** Rule 3 head: [(tx, ts, chain, deposit_id, beneficiary, dst_token,
    amount)]. *)

val r_cctx_valid_deposit : string
(** Rule 4 head: [(src_tx, dst_tx, deposit_id, src_chain, dst_chain,
    src_token, dst_token, beneficiary, amount, src_ts, dst_ts)]. *)

val r_tc_valid_native_withdrawal : string
(** Rule 5 head: [(tx, ts, tc_chain, withdrawal_id, beneficiary,
    src_token, dst_token, sc_chain, amount)]. *)

val r_tc_valid_erc20_withdrawal : string
(** Rule 6 head; same shape as rule 5. *)

val r_sc_valid_erc20_withdrawal : string
(** Rule 7 head: [(tx, ts, sc_chain, withdrawal_id, beneficiary, token,
    amount)]. *)

val r_cctx_valid_withdrawal : string
(** Rule 8 head: [(tc_tx, sc_tx, withdrawal_id, sc_chain, tc_chain,
    src_token, dst_token, beneficiary, amount, tc_ts, sc_ts)]. *)

(** {1 Auxiliary dissection relations} *)

val r_transfer_to_bridge_no_event : string
(** Findings 1/2: [(tx, chain, token, from, amount)]. *)

val r_transfer_from_bridge_no_event : string
val r_sc_deposit_event_no_escrow : string
val r_tc_withdraw_event_no_escrow : string

val r_unmatched_sc_native_deposit : string
(** [(tx, ts, amount, deposit_id, token)]; likewise the other
    unmatched relations, withdrawals carrying
    [(tx, ts, amount, withdrawal_id, beneficiary, token)]. *)

val r_unmatched_sc_erc20_deposit : string
val r_unmatched_tc_deposit : string
val r_unmatched_tc_native_withdrawal : string
val r_unmatched_tc_erc20_withdrawal : string
val r_unmatched_sc_withdrawal : string

val r_deposit_finality_violation : string
(** Finding 4 witnesses: [(src_tx, dst_tx, id, amount, src_ts, dst_ts,
    finality)]. *)

val r_withdrawal_finality_violation : string
val r_deposit_mapping_violation : string
val r_withdrawal_mapping_violation : string
val r_deposit_beneficiary_mismatch : string
val r_withdrawal_beneficiary_mismatch : string
val r_reverted_bridge_interaction : string

(** {1 Attack-pack relations (2023 hack corpus)} *)

val r_forged_proof_withdrawal : string
(** Forged proof/signature acceptance (BNB-style): [(tx, wid,
    beneficiary, token, amount)] — an S-side release whose id was never
    requested on T. *)

val r_validator_takeover_withdrawal : string
(** Compromised-key takeover (Ronin-style): [(tc_tx, sc_tx, wid, token,
    amt_t, amt_s)] — matching ids but re-signed with a different
    amount. *)

val r_unauthorized_mint : string
(** Mint without a matching lock (Qubit-style): [(tx, did, beneficiary,
    token, amount)] — a mapped token minted on T for an id absent from
    S. *)

val r_inconsistent_deposit_event : string
(** Xscope inconsistent event pattern: [(src_tx, dst_tx, did, token,
    amt_s, amt_t)] — both sides emitted the deposit but the amounts
    disagree. *)

val zero_addr : string
(** ["0x0000...0000"]. *)

(** {1 Pessimistic-accounting stratum (PR 10)}

    Rules over the exit-bridge relations of the proof-carrying bridge
    model (DESIGN.md §15).  The [*_total] relations are engine
    aggregates — grouped sums materialized before any stratum runs —
    which the rules join like EDB: stratified aggregation. *)

val r_exit_deposit_total : string
(** Aggregate: [(origin_chain, token, total_deposited)]. *)

val r_exit_claim_total : string
(** Aggregate: [(origin_chain, token, total_claimed)]. *)

val r_acc_outflow_violation : string
(** The conservation law: [(origin_chain, token, claimed, deposited)]
    with [claimed > deposited] (deposited is 0 when the token was
    never exit-deposited on that chain at all). *)

val r_acc_outflow_tx : string
(** Per-tx evidence for an outflow violation: [(tx, dest_chain,
    origin_chain, token, amount)] — every claim drawing on the
    convicted pool. *)

val r_acc_forged_exit_proof : string
(** [(tx, chain, leaf, token, amount)] — a claim whose inclusion proof
    failed watcher-side verification. *)

val r_acc_stale_root_claim : string
(** [(tx, chain, leaf, token, amount, epoch)] — a claim proved
    against an epoch root after a newer epoch was already attested. *)

val r_acc_root_divergence : string
(** [(tx, chain, origin_chain, epoch, validator, signed, sealed)] — a
    validator attestation differing from the origin's sealed root. *)

val r_acc_slashing_evasion : string
(** [(tx, chain, validator, amount)] — a divergent-root validator
    withdrew its stake without being slashed. *)

val aggregates : Xcw_datalog.Engine.aggregate list
(** The two grouped-sum declarations behind the [*_total] relations;
    pass to [Engine.run] or [Engine.prepare] alongside {!program}. *)

(** {1 The program} *)

val all_rules : Xcw_datalog.Ast.rule list
(** The rules of [rules/cross_chain_rules.dl], in file order; a rule's
    position is its ["NN:pred"] label in alerts and metrics.  A syntax
    error in the file fails at startup with [Failure] naming its line
    and column. *)

val program : Xcw_datalog.Ast.program
val rule_count : int
