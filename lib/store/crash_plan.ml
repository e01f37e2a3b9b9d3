type point =
  | Wal_torn_record
  | Wal_pre_sync
  | Wal_post_sync
  | Snap_torn_temp
  | Snap_pre_rename
  | Snap_pre_truncate

let point_name = function
  | Wal_torn_record -> "wal-torn-record"
  | Wal_pre_sync -> "wal-pre-sync"
  | Wal_post_sync -> "wal-post-sync"
  | Snap_torn_temp -> "snap-torn-temp"
  | Snap_pre_rename -> "snap-pre-rename"
  | Snap_pre_truncate -> "snap-pre-truncate"

exception Crashed of point * int

let points =
  [ Wal_torn_record; Wal_pre_sync; Wal_post_sync; Snap_torn_temp;
    Snap_pre_rename; Snap_pre_truncate ]

(* One plan may be shared by every store of a fleet, whose lanes poll
   in parallel domains: the counter is mutex-protected so each write
   opportunity gets a unique index and exactly one of them fires.  The
   partial effect runs under the lock — by then the process is dead
   anyway. *)
type t = {
  mutable ops : int;
  seen : (point, int) Hashtbl.t;  (** opportunities per point kind *)
  target : int;
  mu : Mutex.t;
}

let make target =
  { ops = 0; seen = Hashtbl.create 6; target; mu = Mutex.create () }

let none () = make 0
let at target = make (max 1 target)

let locked t f =
  Mutex.lock t.mu;
  let v = f () in
  Mutex.unlock t.mu;
  v

let ops t = locked t (fun () -> t.ops)

let seen t point = Option.value ~default:0 (Hashtbl.find_opt t.seen point)
let counts t = locked t (fun () -> List.map (fun p -> (p, seen t p)) points)

let step t point ~partial =
  Mutex.lock t.mu;
  t.ops <- t.ops + 1;
  Hashtbl.replace t.seen point (seen t point + 1);
  let fire = t.target > 0 && t.ops = t.target in
  let n = t.ops in
  if fire then begin
    let fin () = Mutex.unlock t.mu in
    (try partial () with e -> fin (); raise e);
    fin ();
    raise (Crashed (point, n))
  end
  else Mutex.unlock t.mu
