(** Attack-pack workloads from the 2023 hack corpus.

    Each pack injects one of four attack classes — forged
    proof/signature acceptance (BNB-style), compromised-key validator
    takeover (Ronin-style), unauthorized mint without a matching lock
    (Qubit-style), and the Xscope unmatched/inconsistent event pattern
    — into an otherwise benign {!Generic} scenario.  The injection
    happens strictly after the benign build, so the same spec minus the
    attack ({!benign_twin}) reproduces the identical benign prefix:
    the attacked scenario differs from its twin in exactly the injected
    transactions ({!injected.inj_txs}).

    Every class has a dedicated detection rule (the attack pack of
    [rules/cross_chain_rules.dl]); the evidence surfaces in
    {!Xcw_core.Report.attack_rows}. *)

module Report = Xcw_core.Report

type spec = {
  a_class : Report.attack_class;
  a_base : Generic.spec;  (** the benign scenario the attack rides on *)
  a_count : int;  (** injected attack transactions (one per id) *)
}

val default_spec : Report.attack_class -> spec
(** Small deterministic pack: the {!Generic.default_spec} base (seed 1;
    optimistic acceptance for {!Report.Forged_proof}, multisig
    otherwise) with 3 injected attacks. *)

val class_of_string : string -> Report.attack_class option
(** Parse a CLI slug: forged-proof | validator-takeover |
    unauthorized-mint | inconsistent-event. *)

val class_slug : Report.attack_class -> string

type injected = {
  inj_built : Scenario.built;
  inj_spec : spec;
  inj_attack_txs : string list;
      (** sorted tx hashes the class's dedicated rule must flag —
          exactly these, nothing else *)
  inj_txs : string list;
      (** sorted tx hashes added relative to the benign twin (attack
          plus setup traffic such as escrow-seeding deposits) *)
}

val build : spec -> injected
(** Build the benign base, then inject [a_count] attacks of [a_class].
    Deterministic: the same spec reproduces byte-identical chains. *)

val benign_twin : spec -> Scenario.built
(** The same benign scenario without the injection. *)

val all_txs : Scenario.built -> string list
(** Sorted 0x-hex transaction hashes across both chains (for
    differential tests against the twin); all tx hashes in {!injected}
    use the same encoding as {!Xcw_core.Report}. *)
