(* Order statistics and load-test rules shared by every workload.  Kept
   free of any SecCloud dependency so the test suite can pin each rule
   on hand-made inputs. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank quantile: the smallest sample with at least a [q]
   share of the samples at or below it. *)
let rank q n = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let a = sorted xs in
  a.(max 0 (min (n - 1) (rank q n - 1)))

let median xs = quantile xs 0.5

(* A tail is reported at a percentile fixed per series, and only if at
   least [beyond] samples lie strictly above its nearest-rank position:
   fewer, and the "tail" is a handful of outliers. *)
let beyond = 10

(* The value at percentile [p], or [None] if fewer than [beyond]
   samples lie beyond it. *)
let tail_at p xs =
  let n = Array.length xs in
  if n - rank (p /. 100.) n >= beyond then Some (quantile xs (p /. 100.)) else None

(* Call times scaled to a reference speed.  Call [i] took [times.(i)]
   and was bracketed by two probes, [probes.(2i)] and [probes.(2i+1)]:
   the times a fixed kernel took just before and just after it, which
   is [nominal] at the reference speed.  Each time is scaled by
   [nominal] over the median probe of the calls within [window] of it,
   so a stretch in which the host ran slower (its probes slower too) is
   scaled back, and one odd probe moves nothing. *)
let scale_to_reference ~window ~nominal ~probes times =
  let n = Array.length times in
  if Array.length probes <> 2 * n then invalid_arg "Stats.scale_to_reference";
  Array.mapi
    (fun i t ->
      let lo = max 0 (i - window) and hi = min (n - 1) (i + window) in
      t *. nominal /. median (Array.sub probes (2 * lo) (2 * (hi - lo + 1))))
    times

(* Open-loop bookkeeping.  A request joins its key's queue (a shard's,
   whose answers come back in submission order) when it is sent, with
   the time it was due; the drain that answers it times it from then,
   not from when the generator got round to sending it, so a stall is
   charged to every request it delayed. *)
module Open_loop = struct
  type 'a t = (float * 'a) Queue.t array

  let create keys : 'a t = Array.init keys (fun _ -> Queue.create ())

  (* Queues [item], due at [due] and sent at [now]; returns the
     generator's lateness. *)
  let sent (t : 'a t) ~key ~due ~now item =
    Queue.push (due, item) t.(key);
    now -. due

  (* The oldest request queued under [key], answered at [now], and its
     latency. *)
  let answered (t : 'a t) ~key ~now =
    let due, item = Queue.pop t.(key) in
    item, now -. due
end

(* Backlog samples are [(time, requests due but not yet answered)].
   The backlog grows when its median over the last third of the run
   exceeds twice the first third's plus [slack] requests: a stable
   queue fluctuates around a level, an overloaded one climbs. *)
let backlog_growing ?(slack = 0) samples =
  let n = Array.length samples in
  if n < 6 then false
  else begin
    let third = n / 3 in
    let level lo hi =
      median (Array.init (hi - lo) (fun i -> float_of_int (snd samples.(lo + i))))
    in
    let first = level 0 third and last = level (n - third) n in
    last > (2. *. first) +. float_of_int slack
  end
