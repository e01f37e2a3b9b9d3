(* Fleet supervisor: N bridge monitors as isolated lanes over a shared
   domain pool, a circuit breaker per lane, one deduplicating bus.

   Determinism contract: lanes are polled in index order each round and
   share no mutable state (each owns its monitor, chains, RPC facades
   and PRNG streams; the symbol table and metrics registry they do
   share are lock-protected and order-insensitive), and the domain pool
   returns results in submission order — so the bus stream, lane
   streams and health trajectory are identical at any [ndomains] and
   across two runs with the same seeds. *)

module Monitor = Xcw_core.Monitor
module Detector = Xcw_core.Detector
module Metrics = Xcw_obs.Metrics
module Span = Xcw_obs.Span
module Pool = Xcw_par.Pool

type lane_spec = {
  l_name : string;
  l_input : Detector.input;
  l_cursors : int -> int * int;
}

type breaker = {
  cb_failure_threshold : int;
  cb_base_term : int;
  cb_max_term : int;
}

let default_breaker =
  { cb_failure_threshold = 3; cb_base_term = 4; cb_max_term = 64 }

type lane_state =
  | Active
  | Degraded
  | Parked of { until : int; term : int }
  | Probation

(* Per-lane instruments, resolved once at creation. *)
type lane_obs = {
  lo_poll_seconds : Metrics.Histogram.t;
  lo_polls : Metrics.Counter.t;
  lo_alerts : Metrics.Counter.t;
}

type lane = {
  ln_index : int;
  ln_spec : lane_spec;
  mutable ln_monitor : Monitor.t option;  (** created on first poll *)
  mutable ln_state : lane_state;
  mutable ln_src : int;  (** achieved (requested) source cursor *)
  mutable ln_dst : int;
  mutable ln_target : int * int;  (** latest unclamped schedule target *)
  mutable ln_failures : int;  (** consecutive failing polls *)
  mutable ln_next_term : int;  (** park term of the next trip *)
  mutable ln_trips : int;
  mutable ln_exceptions : int;
  mutable ln_polls : int;  (** monitor polls executed *)
  mutable ln_prev_pending : int option;  (** pending after the last poll *)
  mutable ln_alerts_rev : Monitor.alert list;  (** raw stream, reversed *)
  mutable ln_alert_count : int;
  mutable ln_last_error : string option;
  ln_dir : string option;  (** per-lane checkpoint directory *)
  mutable ln_bus_seq : int;
      (** high-water mark of monitor alert seqs merged into the bus *)
  mutable ln_replay_tail : Monitor.alert list;
      (** durable alerts above [ln_bus_seq] the bus never saw; merged
          ahead of the lane's next successful poll *)
  ln_obs : lane_obs;
}

type fleet_obs = {
  fo_reg : Metrics.t;
  fo_rounds : Metrics.Counter.t;
  fo_parks : Metrics.Counter.t;
  fo_round_seconds : Metrics.Histogram.t;
  fo_lag : Metrics.Gauge.t;
  fo_parked : Metrics.Gauge.t;
}

type t = {
  s_lanes : lane array;
  s_pool : Pool.t option;  (** [None] = sequential inline *)
  s_breaker : breaker;
  s_budget : int;
  s_bus : Bus.t;
  s_metrics : Metrics.t;
  s_obs : fleet_obs;
  mutable s_rounds : int;
  (* Durable-state extension (PR 9). *)
  s_store : Xcw_store.Store.t option;
  s_crash : Xcw_store.Crash_plan.t option;
  s_snapshot_every : int;
  mutable s_replay : Bus.fleet_alert list;
      (** emissions of the last durable round — the tail a consumer
          must dedup by [fa_seq] after a restart *)
}

type lane_health = {
  lh_index : int;
  lh_name : string;
  lh_state : lane_state;
  lh_polls : int;
  lh_alerts : int;
  lh_failures : int;
  lh_trips : int;
  lh_exceptions : int;
  lh_lag : int;
  lh_monitor : Monitor.health option;
  lh_last_error : string option;
}

type health = {
  fh_rounds : int;
  fh_parked : int;
  fh_emitted : int;
  fh_collapsed : int;
  fh_lag : int;
  fh_lanes : lane_health list;
}

(* ------------------------------------------------------------------ *)
(* Durable fleet state (PR 9)                                          *)

module CW = Xcw_store.Codec.W
module CR = Xcw_store.Codec.R
module Crash_plan = Xcw_store.Crash_plan

(* A simulated process death must abort the fleet poll, not be absorbed
   as a lane failure by the breaker. *)
let is_crash = function Crash_plan.Crashed _ -> true | _ -> false

let sanitize_name name =
  String.map (fun c -> if c = '/' || c = '\\' then '_' else c) name

(* The fleet's own WAL record is the full supervisor state: breaker and
   cursor fields per lane, the bus dedup window and counters, and the
   round's emissions (the replay tail a consumer dedups by [fa_seq]).
   Records are self-contained, so recovery applies only the newest
   one; snapshots reuse the same payload and merely truncate the WAL. *)

let put_origin b (o : Bus.origin) =
  CW.str b o.Bus.o_bridge;
  CW.int b o.Bus.o_round

let get_origin r =
  let o_bridge = CR.str r in
  let o_round = CR.int r in
  { Bus.o_bridge; o_round }

let put_fleet_alert b (fa : Bus.fleet_alert) =
  CW.int b fa.Bus.fa_seq;
  CW.int b fa.Bus.fa_round;
  CW.str b fa.Bus.fa_bridge;
  Monitor.Checkpoint.put_alert b fa.Bus.fa_alert;
  CW.list b (put_origin b) fa.Bus.fa_origins

let get_fleet_alert r =
  let fa_seq = CR.int r in
  let fa_round = CR.int r in
  let fa_bridge = CR.str r in
  let fa_alert = Monitor.Checkpoint.get_alert r in
  let fa_origins = CR.list r (fun () -> get_origin r) in
  { Bus.fa_seq; fa_round; fa_bridge; fa_alert; fa_origins }

let put_lane_state b = function
  | Active -> CW.int b 0
  | Degraded -> CW.int b 1
  | Parked { until; term } ->
      CW.int b 2;
      CW.int b until;
      CW.int b term
  | Probation -> CW.int b 3

let get_lane_state r =
  match CR.int r with
  | 0 -> Active
  | 1 -> Degraded
  | 2 ->
      let until = CR.int r in
      let term = CR.int r in
      Parked { until; term }
  | 3 -> Probation
  | n -> raise (CR.Corrupt (Printf.sprintf "lane state tag %d" n))

let put_opt_int b = function
  | None -> CW.bool b false
  | Some n ->
      CW.bool b true;
      CW.int b n

let get_opt_int r = if CR.bool r then Some (CR.int r) else None

let encode_fleet t ~replay =
  let b = CW.create () in
  CW.int b t.s_rounds;
  CW.int b (Array.length t.s_lanes);
  Array.iter
    (fun ln ->
      put_lane_state b ln.ln_state;
      CW.int b ln.ln_src;
      CW.int b ln.ln_dst;
      let ts, tt = ln.ln_target in
      CW.int b ts;
      CW.int b tt;
      CW.int b ln.ln_failures;
      CW.int b ln.ln_next_term;
      CW.int b ln.ln_trips;
      CW.int b ln.ln_exceptions;
      CW.int b ln.ln_polls;
      put_opt_int b ln.ln_prev_pending;
      CW.int b ln.ln_alert_count;
      CW.opt_str b ln.ln_last_error;
      CW.int b ln.ln_bus_seq)
    t.s_lanes;
  let live, emitted, collapsed = Bus.export t.s_bus in
  CW.int b emitted;
  CW.int b collapsed;
  CW.list b
    (fun (k, fa) ->
      CW.str b k;
      put_fleet_alert b fa)
    live;
  CW.list b (put_fleet_alert b) replay;
  Buffer.contents b

let apply_fleet t payload =
  let r = CR.of_string payload in
  t.s_rounds <- CR.int r;
  if CR.int r <> Array.length t.s_lanes then
    raise (CR.Corrupt "fleet record lane count mismatch");
  Array.iter
    (fun ln ->
      ln.ln_state <- get_lane_state r;
      ln.ln_src <- CR.int r;
      ln.ln_dst <- CR.int r;
      let ts = CR.int r in
      let tt = CR.int r in
      ln.ln_target <- (ts, tt);
      ln.ln_failures <- CR.int r;
      ln.ln_next_term <- CR.int r;
      ln.ln_trips <- CR.int r;
      ln.ln_exceptions <- CR.int r;
      ln.ln_polls <- CR.int r;
      ln.ln_prev_pending <- get_opt_int r;
      ln.ln_alert_count <- CR.int r;
      ln.ln_last_error <- CR.opt_str r;
      ln.ln_bus_seq <- CR.int r)
    t.s_lanes;
  let emitted = CR.int r in
  let collapsed = CR.int r in
  let live =
    CR.list r (fun () ->
        let k = CR.str r in
        let fa = get_fleet_alert r in
        (k, fa))
  in
  Bus.restore t.s_bus ~live ~emitted ~collapsed;
  t.s_replay <- CR.list r (fun () -> get_fleet_alert r)

let create ?(ndomains = 1) ?(breaker = default_breaker)
    ?dedup_window ?(poll_budget = max_int) ?metrics ?state_dir ?crash
    ?(snapshot_every = 8) specs =
  if specs = [] then invalid_arg "Supervisor.create: no lanes";
  if ndomains < 1 then invalid_arg "Supervisor.create: ndomains < 1";
  if poll_budget < 1 then invalid_arg "Supervisor.create: poll_budget < 1";
  if breaker.cb_failure_threshold < 1 || breaker.cb_base_term < 1 then
    invalid_arg "Supervisor.create: degenerate breaker";
  let names = List.map (fun s -> s.l_name) specs in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Supervisor.create: duplicate lane names";
  if
    ndomains > 1
    && List.exists (fun s -> s.l_input.Detector.i_ndomains > 1) specs
  then
    invalid_arg
      "Supervisor.create: fleet-level parallelism over lanes with \
       i_ndomains > 1 would nest domain pools; parallelize one level";
  let metrics = match metrics with Some m -> m | None -> Metrics.default () in
  let lane i spec =
    {
      ln_index = i;
      ln_spec = spec;
      ln_monitor = None;
      ln_state = Active;
      ln_src = 0;
      ln_dst = 0;
      ln_target = (0, 0);
      ln_failures = 0;
      ln_next_term = breaker.cb_base_term;
      ln_trips = 0;
      ln_exceptions = 0;
      ln_polls = 0;
      ln_prev_pending = None;
      ln_alerts_rev = [];
      ln_alert_count = 0;
      ln_last_error = None;
      ln_dir =
        Option.map
          (fun dir -> Filename.concat dir (sanitize_name spec.l_name))
          state_dir;
      ln_bus_seq = 0;
      ln_replay_tail = [];
      ln_obs =
        (let labels = [ ("bridge", spec.l_name) ] in
         {
           lo_poll_seconds =
             Metrics.histogram metrics ~labels "xcw_fleet_poll_seconds";
           lo_polls =
             Metrics.counter metrics ~labels "xcw_fleet_lane_polls_total";
           lo_alerts =
             Metrics.counter metrics ~labels "xcw_fleet_lane_alerts_total";
         });
    }
  in
  let store_state =
    match state_dir with
    | None -> None
    | Some dir ->
        Some
          (Xcw_store.Store.open_ ?crash
             ~dir:(Filename.concat dir "_fleet")
             ())
  in
  let t =
    {
      s_lanes = Array.of_list (List.mapi lane specs);
      s_pool = (if ndomains > 1 then Some (Pool.get ~ndomains) else None);
      s_breaker = breaker;
      s_budget = poll_budget;
      s_bus = Bus.create ?window:dedup_window ~metrics ();
      s_metrics = metrics;
      s_obs =
        {
          fo_reg = metrics;
          fo_rounds = Metrics.counter metrics "xcw_fleet_rounds_total";
          fo_parks = Metrics.counter metrics "xcw_fleet_parks_total";
          fo_round_seconds =
            Metrics.histogram metrics "xcw_fleet_round_seconds";
          fo_lag = Metrics.gauge metrics "xcw_fleet_lag";
          fo_parked = Metrics.gauge metrics "xcw_fleet_parked";
        };
      s_rounds = 0;
      s_store = Option.map fst store_state;
      s_crash = crash;
      s_snapshot_every = snapshot_every;
      s_replay = [];
    }
  in
  (match store_state with
  | None -> ()
  | Some (_, recovered) -> (
      (* Records are self-contained full states: the newest one (or,
         after a truncation, the snapshot) wins. *)
      let payload =
        match List.rev recovered.Xcw_store.Store.r_records with
        | (_, p) :: _ -> Some p
        | [] -> recovered.Xcw_store.Store.r_snapshot
      in
      match payload with None -> () | Some p -> apply_fleet t p));
  t

(* ------------------------------------------------------------------ *)
(* One fleet round                                                     *)

let park t ln ~round =
  let term = ln.ln_next_term in
  ln.ln_state <- Parked { until = round + term; term };
  ln.ln_next_term <- min (ln.ln_next_term * 2) t.s_breaker.cb_max_term;
  ln.ln_failures <- 0;
  ln.ln_trips <- ln.ln_trips + 1;
  Metrics.Counter.inc t.s_obs.fo_parks

(* A lane poll failed (exception, or unsynced with zero progress while
   its schedule stood still).  Probation failures re-park immediately
   at the doubled term; otherwise the threshold decides. *)
let note_failure t ln ~round ~was_probation =
  ln.ln_failures <- ln.ln_failures + 1;
  if was_probation then park t ln ~round
  else if ln.ln_failures >= t.s_breaker.cb_failure_threshold then
    park t ln ~round
  else ln.ln_state <- Degraded

(* The outcome one lane thunk reports back to the submitter. *)
type poll_outcome =
  | P_ok of Monitor.alert list * Monitor.health * float  (** alerts, health, s *)
  | P_exn of string * float

let pending_of (h : Monitor.health) =
  h.Monitor.h_pending_source + h.Monitor.h_pending_target

let poll t : Bus.fleet_alert list =
  let round = t.s_rounds + 1 in
  t.s_rounds <- round;
  let obs = t.s_obs in
  Metrics.Counter.inc obs.fo_rounds;
  let live = Metrics.enabled obs.fo_reg in
  let t0 = if live then Unix.gettimeofday () else 0. in
  let emitted =
    Span.with_ ~attrs:[ ("round", string_of_int round) ] "fleet.round"
      (fun () ->
        (* Phase 1 (sequential, lane order): decide who runs this round
           and at which clamped cursors; create missing monitors.  A
           schedule or monitor-construction failure is a lane failure,
           never a fleet one. *)
        let participants =
          Array.to_list t.s_lanes
          |> List.filter_map (fun ln ->
                 let was_probation =
                   match ln.ln_state with
                   | Parked { until; _ } when round < until -> false
                   | Parked _ ->
                       ln.ln_state <- Probation;
                       true
                   | _ -> false
                 in
                 match ln.ln_state with
                 | Parked _ -> None
                 | _ -> (
                     match
                       let uts, utt = ln.ln_spec.l_cursors round in
                       ln.ln_target <- (uts, utt);
                       let mon =
                         match ln.ln_monitor with
                         | Some m -> m
                         | None ->
                             let checkpoint =
                               Option.map
                                 (fun dir ->
                                   Monitor.Checkpoint.open_ ?crash:t.s_crash
                                     ~dir ())
                                 ln.ln_dir
                             in
                             let m =
                               Monitor.create ~metrics:t.s_metrics ?checkpoint
                                 ln.ln_spec.l_input
                             in
                             (* Capture the replay tail now, while
                                [Monitor.replayed] still holds the
                                recovered crash-boundary alerts — the
                                first new poll overwrites it.
                                Unconditional: even when the
                                supervisor's own store has no durable
                                round (crash before the first round
                                committed), a lane store may already
                                hold durable alerts the bus never saw.
                                The [ln_bus_seq] filter drops anything
                                already merged, so a fresh lane or an
                                up-to-date bus makes this a no-op. *)
                             ln.ln_replay_tail <-
                               List.filter
                                 (fun al -> al.Monitor.al_seq > ln.ln_bus_seq)
                                 (Monitor.replayed m);
                             ln.ln_monitor <- Some m;
                             m
                       in
                       (* Saturating: the default budget is [max_int]
                          and [pos + max_int] wraps negative. *)
                       let clamp pos target =
                         if t.s_budget >= max_int - pos then target
                         else min target (pos + t.s_budget)
                       in
                       (mon, clamp ln.ln_src uts, clamp ln.ln_dst utt)
                     with
                     | mon, ts, tt -> Some (ln, was_probation, mon, ts, tt)
                     | exception e when not (is_crash e) ->
                         ln.ln_last_error <- Some (Printexc.to_string e);
                         ln.ln_exceptions <- ln.ln_exceptions + 1;
                         note_failure t ln ~round ~was_probation;
                         None))
        in
        (* Phase 2 (parallel, submission order = lane order): poll the
           runnable monitors.  Exceptions are captured inside the thunk
           so one lane's blow-up cannot abort the batch. *)
        let thunks =
          List.map
            (fun (_, _, mon, ts, tt) () ->
              let p0 = Unix.gettimeofday () in
              match Monitor.poll mon ~source_block:ts ~target_block:tt with
              | alerts ->
                  P_ok (alerts, Monitor.health mon, Unix.gettimeofday () -. p0)
              | exception e when not (is_crash e) ->
                  P_exn (Printexc.to_string e, Unix.gettimeofday () -. p0))
            participants
        in
        let outcomes =
          match t.s_pool with
          | Some pool -> Pool.run pool thunks
          | None -> List.map (fun f -> f ()) thunks
        in
        (* Phase 3 (sequential, lane order): advance lane state, drive
           the breaker, merge alerts into the bus. *)
        let emitted = ref [] in
        List.iter2
          (fun (ln, was_probation, _, ts, tt) outcome ->
            match outcome with
            | P_exn (msg, dt) ->
                ln.ln_polls <- ln.ln_polls + 1;
                Metrics.Counter.inc ln.ln_obs.lo_polls;
                Metrics.Histogram.observe ln.ln_obs.lo_poll_seconds dt;
                ln.ln_last_error <- Some msg;
                ln.ln_exceptions <- ln.ln_exceptions + 1;
                note_failure t ln ~round ~was_probation
            | P_ok (alerts, h, dt) ->
                let advanced = ts > ln.ln_src || tt > ln.ln_dst in
                ln.ln_polls <- ln.ln_polls + 1;
                Metrics.Counter.inc ln.ln_obs.lo_polls;
                Metrics.Histogram.observe ln.ln_obs.lo_poll_seconds dt;
                ln.ln_src <- ts;
                ln.ln_dst <- tt;
                let pending = pending_of h in
                let progressed =
                  match ln.ln_prev_pending with
                  | Some prev -> pending < prev
                  | None -> true
                in
                ln.ln_prev_pending <- Some pending;
                (match h.Monitor.h_last_error with
                | Some e -> ln.ln_last_error <- Some e
                | None -> ());
                if h.Monitor.h_synced then begin
                  ln.ln_failures <- 0;
                  ln.ln_next_term <- t.s_breaker.cb_base_term;
                  ln.ln_state <- Active
                end
                else if progressed || advanced then begin
                  (* Behind but earning its keep: catch-up after a park,
                     a budget-limited replay, a transient fault being
                     retried down. *)
                  ln.ln_failures <- 0;
                  ln.ln_state <- Degraded
                end
                else note_failure t ln ~round ~was_probation;
                (* After a restart, the lane's monitor may hold durable
                   alerts the bus never saw (the fleet record for their
                   round did not commit): prepend the replay tail above
                   the lane's merged high-water mark.  A re-polled
                   monitor returns [] for an already-processed round —
                   the tail carries those alerts instead, in their
                   original sequence order, so the merged stream is the
                   uninterrupted one. *)
                let tail = ln.ln_replay_tail in
                ln.ln_replay_tail <- [];
                let alerts = tail @ alerts in
                if alerts <> [] then begin
                  ln.ln_alerts_rev <-
                    List.rev_append alerts ln.ln_alerts_rev;
                  ln.ln_alert_count <- ln.ln_alert_count + List.length alerts;
                  Metrics.Counter.add ln.ln_obs.lo_alerts (List.length alerts);
                  List.iter
                    (fun a ->
                      ln.ln_bus_seq <- max ln.ln_bus_seq a.Monitor.al_seq;
                      match
                        Bus.publish t.s_bus ~bridge:ln.ln_spec.l_name ~round a
                      with
                      | `Emitted fa -> emitted := fa :: !emitted
                      | `Collapsed _ -> ())
                    alerts
                end)
          participants outcomes;
        let emitted = List.rev !emitted in
        (* Durability point: the round's full state and emissions hit
           the fleet WAL before the caller sees them. *)
        (match t.s_store with
        | None -> ()
        | Some store ->
            t.s_replay <- emitted;
            let payload = encode_fleet t ~replay:emitted in
            ignore (Xcw_store.Store.append store payload);
            if t.s_snapshot_every > 0 && round mod t.s_snapshot_every = 0
            then Xcw_store.Store.snapshot store [ payload ]);
        emitted)
  in
  if live then begin
    Metrics.Histogram.observe obs.fo_round_seconds
      (Unix.gettimeofday () -. t0);
    let lag = ref 0 and parked = ref 0 in
    Array.iter
      (fun ln ->
        let uts, utt = ln.ln_target in
        lag := !lag + max 0 (uts - ln.ln_src) + max 0 (utt - ln.ln_dst);
        (match ln.ln_prev_pending with Some p -> lag := !lag + p | None -> ());
        match ln.ln_state with Parked _ -> incr parked | _ -> ())
      t.s_lanes;
    Metrics.Gauge.set obs.fo_lag (float_of_int !lag);
    Metrics.Gauge.set obs.fo_parked (float_of_int !parked)
  end;
  emitted

let run t ~rounds =
  List.concat (List.init rounds (fun _ -> poll t))

(* ------------------------------------------------------------------ *)

let lane_health ln =
  let mh = Option.map Monitor.health ln.ln_monitor in
  let uts, utt = ln.ln_target in
  let pending =
    match mh with Some h -> pending_of h | None -> 0
  in
  {
    lh_index = ln.ln_index;
    lh_name = ln.ln_spec.l_name;
    lh_state = ln.ln_state;
    lh_polls = ln.ln_polls;
    lh_alerts = ln.ln_alert_count;
    lh_failures = ln.ln_failures;
    lh_trips = ln.ln_trips;
    lh_exceptions = ln.ln_exceptions;
    lh_lag = max 0 (uts - ln.ln_src) + max 0 (utt - ln.ln_dst) + pending;
    lh_monitor = mh;
    lh_last_error = ln.ln_last_error;
  }

let health t =
  let lanes = Array.to_list (Array.map lane_health t.s_lanes) in
  {
    fh_rounds = t.s_rounds;
    fh_parked =
      List.length
        (List.filter
           (fun lh -> match lh.lh_state with Parked _ -> true | _ -> false)
           lanes);
    fh_emitted = Bus.emitted t.s_bus;
    fh_collapsed = Bus.collapsed t.s_bus;
    fh_lag = List.fold_left (fun acc lh -> acc + lh.lh_lag) 0 lanes;
    fh_lanes = lanes;
  }

let rounds t = t.s_rounds
let bus t = t.s_bus
let alerts t = Bus.alerts t.s_bus
let replayed t = t.s_replay

let lane_alerts t i =
  if i < 0 || i >= Array.length t.s_lanes then
    invalid_arg "Supervisor.lane_alerts: index out of range";
  List.rev t.s_lanes.(i).ln_alerts_rev

let lane_monitor t i =
  if i < 0 || i >= Array.length t.s_lanes then
    invalid_arg "Supervisor.lane_monitor: index out of range";
  t.s_lanes.(i).ln_monitor

let lane_count t = Array.length t.s_lanes
