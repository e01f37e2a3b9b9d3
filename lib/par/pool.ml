(* Fixed-size domain pool.  See the interface for the model.

   One batch at a time: [run] publishes a batch record under the mutex,
   bumps a generation counter and broadcasts; workers claim task
   indices from the batch's own atomic cursor, so load-balancing is
   dynamic while the {e results} stay in submission order (each task
   writes only its own slot).  The submitter participates in its own
   batch, then blocks until the mutex-guarded remaining-count hits
   zero — a task that raises is caught into its slot, so the count
   always drains and the exception surfaces in the submitter instead
   of killing a worker.

   The cursor and remaining-count live in the per-batch record, not the
   pool: a worker that woke for batch N but was descheduled before its
   first claim may resume arbitrarily late — with batch-local state the
   worst it can do is find its own (exhausted) cursor empty, never
   steal an index from a successor batch while holding the stale
   closure. *)

module Metrics = Xcw_obs.Metrics

type batch = {
  b_exec : int -> unit;
  b_len : int;
  b_next : int Atomic.t;
  mutable b_remaining : int;  (* guarded by the pool mutex *)
}

type t = {
  p_ndomains : int;
  p_mu : Mutex.t;
  p_work : Condition.t;
  p_donec : Condition.t;
  mutable p_gen : int;
  mutable p_batch : batch option;
  mutable p_shutdown : bool;
  mutable p_workers : unit Domain.t list;
  (* interned once at [create]; updated by the submitting domain only *)
  p_m_tasks : Metrics.Counter.t;
  p_m_batch : Metrics.Histogram.t;
}

let ndomains t = t.p_ndomains

(* Claim-and-run until the batch's cursor is exhausted, then retire the
   executed count in one mutex acquisition. *)
let drain t (b : batch) =
  let did = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add b.b_next 1 in
    if i < b.b_len then begin
      b.b_exec i;
      incr did
    end
    else continue_ := false
  done;
  if !did > 0 then begin
    Mutex.lock t.p_mu;
    b.b_remaining <- b.b_remaining - !did;
    if b.b_remaining = 0 then Condition.broadcast t.p_donec;
    Mutex.unlock t.p_mu
  end

let rec worker t seen =
  Mutex.lock t.p_mu;
  while (not t.p_shutdown) && t.p_gen = seen do
    Condition.wait t.p_work t.p_mu
  done;
  if t.p_shutdown then Mutex.unlock t.p_mu
  else begin
    let gen = t.p_gen in
    let b = t.p_batch in
    Mutex.unlock t.p_mu;
    (match b with Some b -> drain t b | None -> ());
    worker t gen
  end

let create ~ndomains =
  if ndomains < 1 then invalid_arg "Pool.create: ndomains must be >= 1";
  let reg = Metrics.default () in
  let labels = [ ("ndomains", string_of_int ndomains) ] in
  let t =
    {
      p_ndomains = ndomains;
      p_mu = Mutex.create ();
      p_work = Condition.create ();
      p_donec = Condition.create ();
      p_gen = 0;
      p_batch = None;
      p_shutdown = false;
      p_workers = [];
      p_m_tasks = Metrics.counter reg ~labels "xcw_par_tasks_total";
      p_m_batch = Metrics.histogram reg ~labels "xcw_par_batch_tasks";
    }
  in
  t.p_workers <-
    List.init (ndomains - 1) (fun _ -> Domain.spawn (fun () -> worker t 0));
  t

let run : type a. t -> (unit -> a) list -> a list =
 fun t fs ->
  match fs with
  | [] -> []
  | fs ->
      let tasks = Array.of_list fs in
      let n = Array.length tasks in
      let results : a option array = Array.make n None in
      let errors : exn option array = Array.make n None in
      let exec i =
        try results.(i) <- Some (tasks.(i) ()) with e -> errors.(i) <- Some e
      in
      if t.p_ndomains = 1 then
        for i = 0 to n - 1 do
          exec i
        done
      else begin
        let b =
          { b_exec = exec; b_len = n; b_next = Atomic.make 0; b_remaining = n }
        in
        Mutex.lock t.p_mu;
        if t.p_shutdown then begin
          Mutex.unlock t.p_mu;
          invalid_arg "Pool.run: pool is shut down"
        end;
        t.p_batch <- Some b;
        t.p_gen <- t.p_gen + 1;
        Condition.broadcast t.p_work;
        Mutex.unlock t.p_mu;
        drain t b;
        Mutex.lock t.p_mu;
        while b.b_remaining > 0 do
          Condition.wait t.p_donec t.p_mu
        done;
        t.p_batch <- None;
        Mutex.unlock t.p_mu
      end;
      Metrics.Counter.add t.p_m_tasks n;
      Metrics.Histogram.observe t.p_m_batch (float_of_int n);
      Array.iter (function Some e -> raise e | None -> ()) errors;
      List.init n (fun i ->
          match results.(i) with
          | Some v -> v
          | None -> assert false)

let shutdown t =
  Mutex.lock t.p_mu;
  t.p_shutdown <- true;
  Condition.broadcast t.p_work;
  let workers = t.p_workers in
  t.p_workers <- [];
  Mutex.unlock t.p_mu;
  List.iter Domain.join workers

(* Process-wide interned pools, one per worker count. *)
let interned : (int, t) Hashtbl.t = Hashtbl.create 4
let interned_mu = Mutex.create ()

let get ~ndomains =
  Mutex.lock interned_mu;
  let t =
    match Hashtbl.find_opt interned ndomains with
    | Some t -> t
    | None ->
        let t = create ~ndomains in
        Hashtbl.add interned ndomains t;
        t
  in
  Mutex.unlock interned_mu;
  t
