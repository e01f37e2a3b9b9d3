(** Dissection of the derived Datalog relations into a classified
    anomaly report — the logic behind the paper's Tables 3 and 4,
    shared by the batch {!Detector} and the streaming {!Monitor}. *)

val str_at : Xcw_datalog.Ast.const array -> int -> string
(** Tuple field as a string ([Int]s are rendered). *)

val int_at : Xcw_datalog.Ast.const array -> int -> int
(** Tuple field as an int; raises [Invalid_argument] on strings. *)

val alert_rows :
  config:Config.t ->
  pricing:Pricing.t ->
  first_window_withdrawal_id:int option ->
  decode_errors:Decoder.decode_error list ->
  db:Xcw_datalog.Engine.db ->
  Report.rule_row list * Report.acc_row list
(** The report's rule rows 1-8 and accounting rows — exactly
    [(r.rows, r.acc_rows)] of the {!dissect} result [r] — without the
    cctx dataset and attack tables. *)

val dissect :
  label:string ->
  config:Config.t ->
  pricing:Pricing.t ->
  first_window_withdrawal_id:int option ->
  decode_errors:Decoder.decode_error list ->
  db:Xcw_datalog.Engine.db ->
  ?decode_seconds:float ->
  ?eval_seconds:float ->
  ?simulated_rpc_seconds:float ->
  ?total_facts:int ->
  unit ->
  Report.t
(** Build the classified report from an evaluated database.  Anomaly
    causes are resolved in priority order: finality violation, then
    token-mapping violation, then beneficiary mismatch / unparseable
    linkage, then pre-window false positive, then no-correspondence. *)
