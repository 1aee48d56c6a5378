(* Types and helpers the three workloads share. *)

let now = Unix.gettimeofday

(* Seconds of CPU time the process has used (user + system, from
   getrusage, microsecond resolution).  The closed loops and set-up
   are timed with it: they run synchronously on one domain, so on a
   machine of their own it equals the wall clock, while on a shared
   host the wall clock also counts the time the vCPU was taken away
   (steal, which the kernel leaves out of CPU time) or shared with
   another process. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let nproc = Domain.recommended_domain_count ()

(* Runs [f] with the domain pool at [d] domains, then restores it. *)
let with_domains d f =
  let saved = Sc_parallel.domain_count () in
  Sc_parallel.set_domain_count d;
  Fun.protect ~finally:(fun () -> Sc_parallel.set_domain_count saved) f

(* Growable float buffer for latency samples. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let to_array b = Array.sub b.a 0 b.n
end

(* The host's speed, probed around every timed call.  CPU time leaves
   out the time the vCPU was taken away, but not how fast the core ran
   while it had it: on a shared two-vCPU VM the same call took about
   1.6x longer in some stretches than in others (another tenant on the
   core, or its clock), in stretches that came and went within a second
   and in proportions that drifted over minutes, so a run's p50 landed
   on either level (storage audits 5.3 or 8.4 ms, back to back).  So
   every timed call is bracketed by two bursts of a fixed kernel of the
   benchmark's own, which calls nothing in lib/ and so moves with no
   change to the program, and the call's CPU time is scaled by
   [nominal_s] over the median of the bursts around the [window] calls
   before and after it: its time at the speed where one burst takes
   [nominal_s].  The bursts run outside the timed calls. *)
module Speed = struct
  let nominal_s = 2e-4
  let window = 10
  let words = 1 lsl 14

  (* 128 KiB outside the OCaml heap, so [peak_heap_mb] does not see it
     and the collector never scans it. *)
  let table =
    let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
    Bigarray.Array1.fill t 1;
    t

  (* CPU seconds of one burst: 60000 read-multiply-write steps at
     pseudo-random places in [table], allocating nothing. *)
  let burst () =
    let t0 = cpu_now () in
    let acc = ref 0 and k = ref 12345 in
    for _ = 1 to 60000 do
      k := ((!k * 1103515245) + 12345) land 0x3FFFFFFF;
      let i = !k land (words - 1) in
      let v = Bigarray.Array1.unsafe_get table i in
      Bigarray.Array1.unsafe_set table i (((v * 0x9E3779B1) + !acc) land 0x3FFFFFFF);
      acc := !acc lxor v
    done;
    ignore (Sys.opaque_identity !acc);
    cpu_now () -. t0

  type t = {
    mutable calls : (Fbuf.t * float) list;  (* series and CPU seconds, latest first *)
    bursts : Fbuf.t;  (* two per call, in call order *)
    mutable cpu : float;  (* CPU seconds of the timed calls, unscaled *)
  }

  let create () = { calls = []; bursts = Fbuf.create (); cpu = 0. }

  (* Runs [f]; its time goes to [series] when [finish] is called. *)
  let time t series f =
    Fbuf.push t.bursts (burst ());
    let t0 = cpu_now () in
    let r = f () in
    let dt = cpu_now () -. t0 in
    Fbuf.push t.bursts (burst ());
    t.cpu <- t.cpu +. dt;
    t.calls <- (series, dt) :: t.calls;
    r

  (* Pushes every call's time at reference speed to its series, in call
     order.  Of the scalings tried on six 30 s runs of each closed loop,
     the median over a window of calls gave the steadiest p50s and
     tails: the interquartile spread of the storage-audit p50 across
     runs was 0.27 of its median unscaled, 0.09 scaled call by call by
     the two bursts around it, and 0.08 with the window, the upload p50's
     0.14, 0.08 and 0.07. *)
  let finish t =
    let calls = Array.of_list (List.rev t.calls) in
    let scaled =
      Stats.scale_to_reference ~window ~nominal:nominal_s ~probes:(Fbuf.to_array t.bursts)
        (Array.map snd calls)
    in
    Array.iteri (fun i (series, _) -> Fbuf.push series scaled.(i)) calls;
    t.calls <- []

  (* The spread of the bursts, recorded alongside: how unsteady the
     host was during the run. *)
  let notes t =
    let b = Fbuf.to_array t.bursts in
    List.map
      (fun q ->
        Printf.sprintf "speed_burst_p%g_ms" (q *. 100.),
        Printf.sprintf "%.4f" (Stats.quantile b q *. 1e3))
      [ 0.1; 0.5; 0.9 ]
end

(* A latency series (seconds) reported as [role]'s p50 and tail, under
   its own [label] in the '#' lines.  The tail is taken at [pct], fixed
   per series: the highest percentile of {50, 75, 90, 99, ...} that
   keeps at least [Stats.beyond] samples beyond it at the benchmark's
   run length. *)
type series = { role : string; label : string; pct : float; samples : Fbuf.t }

type outcome = {
  attempted : int;
  failed : int;  (* failed, refused or wrongly judged operations *)
  violations : string list;  (* correctness violations, for the log *)
  ops : int;  (* operations timed *)
  blocks : int;  (* blocks signed or sampled by those operations *)
  wall : float;  (* seconds the timed loop ran *)
  busy : float;  (* seconds of it spent inside calls into the program
                   (CPU seconds in the closed loops) *)
  e2e : (string * float) list;  (* end-to-end metrics but set-up/heap/latency *)
  series : series list;
  layer : (string * float) list;  (* per-layer values only this workload sees *)
  notes : (string * string) list;  (* recorded alongside *)
}

(* A series' end-to-end metrics (ms) and '#' notes.  A run too short to
   have [Stats.beyond] samples beyond the series' percentile fails
   rather than report some other percentile under the same name. *)
let latency_metrics s =
  let xs = Array.map (fun x -> x *. 1e3) (Fbuf.to_array s.samples) in
  let n = Array.length xs in
  match Stats.tail_at s.pct xs with
  | None -> failwith (Printf.sprintf "%s: run too short for p%g (%d samples)" s.label s.pct n)
  | Some tail ->
    let p50 = Stats.median xs in
    ( [ s.role ^ "_p50_ms", p50; s.role ^ "_tail_ms", tail ],
      [
        s.label ^ "_p50_ms", Printf.sprintf "%.4f" p50;
        s.label ^ "_tail_ms", Printf.sprintf "%.4f" tail;
        s.label ^ "_tail_pct", Printf.sprintf "%g" s.pct;
        s.label ^ "_n", string_of_int n;
      ] )

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let sum samples = Array.fold_left ( +. ) 0. (Fbuf.to_array samples)

(* Counter handles the traced run probes at span boundaries, and the
   layer each count is charged to (times a unit cost from [Units]). *)
let counter = Sc_telemetry.Telemetry.counter
let read c () = Sc_telemetry.Telemetry.value c

let probe_names =
  [|
    "curve.mul.wnaf";
    "pairing.single";
    "pairing.multi_terms";
    "hash.sha256.bytes";
  |]

let probe_layers = [| "sc_ec"; "sc_pairing"; "sc_pairing"; "sc_hash" |]
let probes () = Array.map (fun n -> read (counter n)) probe_names

(* Deltas of named counters over a thunk. *)
let counter_delta names f =
  let cs = List.map (fun n -> n, counter n) names in
  let before = List.map (fun (n, c) -> n, Sc_telemetry.Telemetry.value c) cs in
  let r = f () in
  ( r,
    List.map
      (fun (n, c) -> n, Sc_telemetry.Telemetry.value c - List.assoc n before)
      cs )

let rng_of_seed seed =
  let d = Sc_hash.Sha256.digest seed in
  Random.State.make (Array.init 8 (fun i -> Char.code d.[i] lor (Char.code d.[i + 8] lsl 8)))

let payload rng bytes = String.init bytes (fun _ -> Char.chr (Random.State.int rng 256))
