(** A small fixed-size domain pool for data-parallel batches.

    A pool owns [ndomains - 1] worker domains (the submitting domain is
    the remaining worker, so [ndomains] tasks really run concurrently)
    that persist across batches — spawning a domain costs far more than
    a stratum evaluation, so consumers create one pool and reuse it.

    [run] submits a batch of independent thunks and returns their
    results {e in submission order}, whatever order the workers finished
    in: callers that merge per-task outputs get a deterministic,
    worker-count-independent merge for free.  A task that raises does
    not kill its worker or deadlock the batch — the exception is
    re-raised in the submitter once the batch has drained, and if
    several tasks raise, the one with the lowest index wins (again
    deterministic).

    [ndomains = 1] is the graceful fallback: no domain is ever spawned
    and [run] degenerates to [List.map (fun f -> f ())] on the calling
    domain, preserving bit-identical sequential behaviour.

    Every batch records into the default {!Xcw_obs.Metrics} registry
    current at [create] (labelled [ndomains]): its task count into the
    [xcw_par_tasks_total] counter and one [xcw_par_batch_tasks]
    histogram observation. *)

type t

val create : ndomains:int -> t
(** [create ~ndomains] spawns [ndomains - 1] persistent workers.
    Raises [Invalid_argument] if [ndomains < 1]. *)

val ndomains : t -> int

val run : t -> (unit -> 'a) list -> 'a list
(** Execute a batch; results in submission order.  Re-raises the
    lowest-indexed task exception after the whole batch has drained.
    An empty batch returns [[]] immediately without touching the
    workers.  Not reentrant: one batch at a time per pool. *)

val shutdown : t -> unit
(** Join the workers.  Idempotent; a later [run] on a shut-down pool
    with [ndomains > 1] raises [Invalid_argument]. *)

val get : ndomains:int -> t
(** Interned process-wide pools, one per [ndomains], created on first
    use and never shut down — the cheap way for the engine, decoder and
    monitor to share workers instead of each spawning their own. *)
