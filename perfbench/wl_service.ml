(* service: open-loop tenant traffic through the sharded front end.

   Requests arrive on two seeded schedules, are submitted when due and
   answered by the next [Service.drain].  Light requests arrive as a
   Poisson stream at the offered rate less [heavy_rate]; heavy requests
   of a few pre-stored tenants arrive every 1/[heavy_rate] seconds from
   a seeded phase.  Heavy arrivals are periodic because Poisson ones
   cluster, and how many clusters a run drew decided its p99.  Latency
   runs from a request's due time to the return of the drain that
   answered it, so generator lateness and queueing both count.

   The mix is the repo's own service soak campaign's
   ([Sc_sim.Engine.default_service_config], [campaign] below): its
   admitted identities warm the front end; light traffic is one
   [Lookup] of an admitted identity per [sv_lookup_stride] new-identity
   [Admit]s; its heavy tenants, [sv_corrupt] of them with a corrupted
   file, store [sv_blocks_per_file]-block files of [sv_ints_per_block]
   ints and send heavy kinds in its per-tenant proportions: a [Store]
   and a [Mutate] of [sv_dynamic_ops] ops per [sv_audit_rounds]
   [Audit_storage] and [Compute] pairs of [sv_tasks] tasks and
   [sv_samples] samples.  Samples cover every block of a file, so
   every audit verdict has a known right answer.  Only the heavy share
   is the benchmark's own, as the campaign sends its heavy requests in
   waves: [heavy_rate] is 0.1% of the reference rate.  There heavy
   drains hold up about a fifth of the light requests, so the median is
   a light request's own cost and heavy requests set the tail.  At 0.2%
   they held up nearly two fifths, and the median sat where latencies
   jump from tens of microseconds to milliseconds.

   Two figures come out: latency at the fixed [reference_rate], taken
   over the first half of the run, and
   the highest offered rate meeting every limit ([p99_limit_s],
   [max_rejected_share], no growing backlog), found by bisection to
   within [resolution].  A rate fails only when two trials in a row
   fail it, so one stall from outside the program cannot cap the
   search. *)

open Common
module Service = Sc_service.Service

let campaign = Sc_sim.Engine.default_service_config
let reference_rate = 10_000.
let heavy_rate = 0.001 *. reference_rate
let heavy_tenants = campaign.sv_heavy
let corrupt_tenants = campaign.sv_corrupt
let preload_tenants = campaign.sv_identities
let heavy_blocks = campaign.sv_blocks_per_file
let p99_limit_s = 0.1
let max_rejected_share = 0.001
let resolution = 1.03
let max_trials = 10

(* One rotation of heavy kinds, in the campaign's per-tenant
   proportions. *)
let heavy_kinds =
  Array.of_list
    ((`Store :: `Mutate :: List.concat (List.init campaign.sv_audit_rounds (fun _ -> [ `Audit; `Compute ]))))

type expect =
  | Admitted
  | Info of bool * int
  | Stored
  | Audited of bool  (* intact *)
  | Computed
  | Mutated

type tenant = { mutable files : int; corrupt : bool }

type state = {
  svc : Service.t;
  rng : Random.State.t;
  heavy : string array;
  tenants : (string, tenant) Hashtbl.t;  (* admitted, as accepted *)
  mutable next_tenant : int;  (* light identities t1 .. t<next_tenant> are admitted *)
  mutable next_file : int;
  mutable next_heavy : int;
  mutable log : (string * Service.request) list;  (* accepted, newest first *)
}

let block_payload rng =
  Sc_storage.Block.encode_ints
    (List.init campaign.sv_ints_per_block (fun _ -> Random.State.int rng 1000))

let submit_all svc reqs =
  List.iter
    (fun (tenant, req) ->
      match Service.submit svc ~tenant req with
      | Ok () -> ()
      | Error e -> Format.kasprintf failwith "set-up refused: %a" Service.pp_error e)
    reqs;
  Service.drain svc

let setup ~seed =
  let svc = Service.create ~params:Sc_pairing.Params.small ~seed:("service:" ^ seed) () in
  let rng = rng_of_seed ("service:" ^ seed) in
  let heavy = Array.init heavy_tenants (Printf.sprintf "heavy-%d") in
  let tenants = Hashtbl.create 65536 in
  (* Heavy tenants in groups that fit the shard queues. *)
  let chunk = 16 in
  for c = 0 to ((heavy_tenants + chunk - 1) / chunk) - 1 do
    let group = Array.sub heavy (c * chunk) (min chunk (heavy_tenants - (c * chunk))) in
    List.iter
      (function
        | _, Service.Store _, Service.Stored true | _, Service.Admit, Service.Admitted _ -> ()
        | t, _, _ -> failwith (t ^ ": set-up store failed"))
      (submit_all svc
         (List.concat_map
            (fun t ->
              [
                t, Service.Admit;
                ( t,
                  Service.Store
                    { file = "base"; payloads = List.init heavy_blocks (fun _ -> block_payload rng) } );
              ])
            (Array.to_list group)))
  done;
  let corrupt = Array.sub heavy 0 corrupt_tenants in
  ignore
    (submit_all svc
       (List.map (fun t -> t, Service.Corrupt { file = "base" }) (Array.to_list corrupt)));
  Array.iteri
    (fun i t -> Hashtbl.replace tenants t { files = 1; corrupt = i < corrupt_tenants })
    heavy;
  (* A warm front end: the campaign's identities already admitted. *)
  let chunk = 4096 in
  let rec admit from =
    if from <= preload_tenants then begin
      let ids =
        List.init (min chunk (preload_tenants - from + 1)) (fun i -> Printf.sprintf "t%d" (from + i))
      in
      List.iter
        (function
          | t, Service.Admit, Service.Admitted _ ->
            Hashtbl.replace tenants t { files = 0; corrupt = false }
          | t, _, _ -> failwith (t ^ ": set-up admit failed"))
        (submit_all svc (List.map (fun t -> t, Service.Admit) ids));
      admit (from + chunk)
    end
  in
  admit 1;
  {
    svc;
    rng;
    heavy;
    tenants;
    next_tenant = preload_tenants;
    next_file = 0;
    next_heavy = 0;
    log = [];
  }

(* The next request and what its answer must be, given every request
   accepted before it (per-tenant order is submission order). *)
let generate st ~heavy =
  let rng = st.rng in
  if heavy then begin
    (* Kinds in a fixed rotation, tenants at random, so the heavy mix
       does not drift with the seed. *)
    let kind = heavy_kinds.(st.next_heavy mod Array.length heavy_kinds) in
    st.next_heavy <- st.next_heavy + 1;
    let pick from = from.(Random.State.int rng (Array.length from)) in
    match kind with
    | `Audit ->
      let tenant = pick st.heavy in
      ( tenant,
        Service.Audit_storage { file = "base"; samples = campaign.sv_samples },
        Audited (not (Hashtbl.find st.tenants tenant).corrupt) )
    | `Compute ->
      (* Honest tenants only: a computation over a corrupted file may
         or may not touch the bad block. *)
      ( pick (Array.sub st.heavy corrupt_tenants (heavy_tenants - corrupt_tenants)),
        Service.Compute
          { file = "base"; n_tasks = campaign.sv_tasks; samples = campaign.sv_samples },
        Computed )
    | `Mutate -> pick st.heavy, Service.Mutate { file = "base"; ops = campaign.sv_dynamic_ops }, Mutated
    | `Store ->
      st.next_file <- st.next_file + 1;
      ( pick st.heavy,
        Service.Store
          {
            file = Printf.sprintf "extra-%d" st.next_file;
            payloads = List.init heavy_blocks (fun _ -> block_payload rng);
          },
        Stored )
  end
  else if Random.State.int rng (campaign.sv_lookup_stride + 1) > 0 then begin
    st.next_tenant <- st.next_tenant + 1;
    Printf.sprintf "t%d" st.next_tenant, Service.Admit, Admitted
  end
  else begin
    (* Any identity an Admit was sent for, heavy ones included; one
       whose Admit was refused is still unknown. *)
    let i = Random.State.int rng (heavy_tenants + st.next_tenant) in
    let tenant =
      if i < heavy_tenants then st.heavy.(i) else Printf.sprintf "t%d" (i - heavy_tenants + 1)
    in
    let expect =
      match Hashtbl.find_opt st.tenants tenant with
      | None -> Info (false, 0)
      | Some r -> Info (true, r.files)
    in
    tenant, Service.Lookup, expect
  end

let accepted st ~keep tenant req =
  if keep then st.log <- (tenant, req) :: st.log;
  match req with
  | Service.Admit ->
    if not (Hashtbl.mem st.tenants tenant) then
      Hashtbl.replace st.tenants tenant { files = 0; corrupt = false }
  | Service.Store _ ->
    let r = Hashtbl.find st.tenants tenant in
    r.files <- r.files + 1
  | _ -> ()

let correct st tenant expect (response : Service.response) =
  match expect, response with
  | Admitted, Service.Admitted { shard } -> shard = Service.shard_of st.svc tenant
  | Info (k, f), Service.Info { known; files } -> k = known && f = files
  | Stored, Service.Stored ok -> ok
  | Audited intact, Service.Audited { report; _ } ->
    report.Seccloud.Agency.channel = None && report.Seccloud.Agency.intact = intact
  | Computed, Service.Computed { verdict; _ } -> verdict.Sc_audit.Protocol.valid
  | Mutated, Service.Mutated { intact; diverged; _ } -> intact && not diverged
  | _ -> false

type trial = {
  rate : float;
  latencies : Fbuf.t;  (* seconds, every answered request *)
  heavy_lat : Fbuf.t;
  lateness : Fbuf.t;  (* submit time minus due time *)
  mutable rejected : int;
  mutable wrong : int;
  mutable requests : int;
  mutable busy : float;
  mutable submit_s : float;  (* inside Service.submit *)
  mutable light_drain_s : float;  (* drains that answered light requests only *)
  mutable light_drained : int;
  mutable backlog : (float * int) list;  (* newest first *)
  mutable peak_queue : int;
  mutable aborted : bool;
}

let p99 t =
  (* A refused request misses any latency limit. *)
  let xs = Fbuf.to_array t.latencies in
  let xs = Array.append xs (Array.make t.rejected infinity) in
  if Array.length xs = 0 then 0. else Stats.quantile xs 0.99

let passes t =
  p99 t <= p99_limit_s
  && (not t.aborted)
  && float_of_int t.rejected <= max_rejected_share *. float_of_int t.requests
  && not
       (Stats.backlog_growing
          ~slack:(int_of_float (t.rate *. 0.01))
          (Array.of_list (List.rev t.backlog)))

(* One open-loop run at [rate] requests/s for [duration] seconds.
   [keep] logs accepted requests for the digest replay.  A run that
   has clearly failed (refusals past the allowed share of the whole
   run, or a second's worth of arrivals unanswered) stops generating
   early, so probing an overloaded rate costs no more than a passing
   one. *)
let run_rate st ~spans ~rate ~duration ~keep =
  let t =
    {
      rate;
      latencies = Fbuf.create ();
      heavy_lat = Fbuf.create ();
      lateness = Fbuf.create ();
      rejected = 0;
      wrong = 0;
      requests = 0;
      busy = 0.;
      submit_s = 0.;
      light_drain_s = 0.;
      light_drained = 0;
      backlog = [];
      peak_queue = 0;
      aborted = false;
    }
  in
  let fifo = Stats.Open_loop.create (Service.config st.svc).Service.shards in
  let start = now () in
  let stop = start +. duration in
  let after due rate = due -. (log (1. -. Random.State.float st.rng 1.) /. rate) in
  let light_due = ref (after start (rate -. heavy_rate))
  and heavy_due = ref (start +. Random.State.float st.rng (1. /. heavy_rate)) in
  let next_due = ref (Float.min !light_due !heavy_due) in
  let due_count = ref 0 and answered = ref 0 and op = ref 0 in
  let finished = ref false in
  while not !finished do
    let clock = now () in
    (* Submit everything due by now. *)
    let t0 = now () in
    if float_of_int t.rejected > max_rejected_share *. rate *. duration
       || float_of_int (!due_count - !answered) > rate
    then t.aborted <- true;
    while !next_due <= clock && !next_due < stop && not t.aborted do
      let due = !next_due in
      let heavy = !heavy_due <= !light_due in
      if heavy then heavy_due := due +. (1. /. heavy_rate)
      else light_due := after due (rate -. heavy_rate);
      next_due := Float.min !light_due !heavy_due;
      incr due_count;
      t.requests <- t.requests + 1;
      let tenant, req, expect = generate st ~heavy in
      let s0 = now () in
      let submitted =
        Spans.wrap spans ~layer:"sc_service" ~name:"service.submit" ~op:!op
          (fun () -> Service.submit st.svc ~tenant req)
      in
      t.submit_s <- t.submit_s +. (now () -. s0);
      match submitted with
      | Ok () ->
        Fbuf.push t.lateness
          (Stats.Open_loop.sent fifo ~key:(Service.shard_of st.svc tenant) ~due ~now:(now ())
             (tenant, expect, heavy));
        accepted st ~keep tenant req
      | Error _ ->
        t.rejected <- t.rejected + 1;
        incr answered
    done;
    let t1 = now () in
    t.busy <- t.busy +. (t1 -. t0);
    let pending = Service.pending st.svc in
    if pending > 0 then begin
      t.backlog <- (clock -. start, !due_count - !answered) :: t.backlog;
      if pending > t.peak_queue then t.peak_queue <- pending;
      incr op;
      let responses =
        Spans.wrap spans ~layer:"sc_service" ~name:"service.drain" ~op:!op
          (fun () -> Service.drain st.svc)
      in
      let done_at = now () in
      t.busy <- t.busy +. (done_at -. t1);
      if List.for_all (fun (_, r, _) -> r = Service.Admit || r = Service.Lookup) responses
      then begin
        t.light_drain_s <- t.light_drain_s +. (done_at -. t1);
        t.light_drained <- t.light_drained + List.length responses
      end;
      List.iter
        (fun (tenant, _, response) ->
          let (tenant', expect, heavy), lat =
            Stats.Open_loop.answered fifo ~key:(Service.shard_of st.svc tenant) ~now:done_at
          in
          incr answered;
          Fbuf.push t.latencies lat;
          if heavy then Fbuf.push t.heavy_lat lat;
          if tenant <> tenant' || not (correct st tenant expect response) then
            t.wrong <- t.wrong + 1)
        responses
    end
    else if !next_due >= stop || t.aborted then finished := true
    else begin
      (* Idle until the next request is due; sleep through long gaps,
         spin through short ones. *)
      let gap = !next_due -. now () in
      if gap > 0.002 then Unix.sleepf (gap -. 0.001)
    end
  done;
  t

(* Replays the logged requests on a fresh same-seed service with
   nproc domains: the digest must match the measured run's, made with
   one. *)
let replay_digest ~seed log =
  let st = setup ~seed in
  with_domains nproc (fun () ->
      List.iter
        (fun (tenant, req) ->
          if Service.pending st.svc >= 512 then ignore (Service.drain st.svc);
          match Service.submit st.svc ~tenant req with
          | Ok () -> ()
          | Error _ -> failwith "replay refused a request")
        (List.rev log);
      ignore (Service.drain st.svc));
  Service.digest st.svc

let ms x = x *. 1e3

let measure ~seed st ~spans ~seconds ~search =
  let ref_s = if search then 0.5 *. seconds else seconds in
  let r = run_rate st ~spans ~rate:reference_rate ~duration:ref_s ~keep:true in
  let digest = Service.digest st.svc in
  (* Taken before the search, whose admitted identities grow with the
     rate it reaches. *)
  let heap = peak_heap_mb () in
  let violations = ref [] in
  let failed = ref (r.rejected + r.wrong) in
  if r.wrong > 0 then
    violations := Printf.sprintf "%d wrong answers at the reference rate" r.wrong :: !violations;
  if r.rejected > 0 then
    violations := Printf.sprintf "%d refused at the reference rate" r.rejected :: !violations;
  let trials = ref [] in
  let max_rps =
    if not search then 0.
    else begin
      let duration = 0.5 *. seconds /. float_of_int max_trials in
      let passing rate =
        let t = run_rate st ~spans:None ~rate ~duration ~keep:false in
        trials := (rate, passes t, ms (p99 t), t.rejected) :: !trials;
        if t.wrong > 0 then begin
          failed := !failed + t.wrong;
          violations := Printf.sprintf "%d wrong answers at %.0f/s" t.wrong rate :: !violations
        end;
        passes t
      in
      (* Bracket, then bisect geometrically: the largest rate seen to
         pass, within [resolution] of the smallest seen to fail.  A
         reference phase that itself failed leaves nothing passing: 0. *)
      let capacity = float_of_int r.requests /. Float.max r.busy 1e-6 in
      let lo = ref (if passes r then reference_rate else 0.)
      and hi = ref (Float.max (1.5 *. capacity) (2. *. reference_rate)) in
      let n = ref 0 in
      let trial rate =
        incr n;
        passing rate
      in
      while !lo > 0. && !n < max_trials && !hi /. !lo > resolution do
        let probe = if !n = 0 then !hi else sqrt (!lo *. !hi) in
        if trial probe || (!n < max_trials && trial probe) then begin
          lo := probe;
          if probe >= !hi then hi := 2. *. !hi
        end
        else hi := probe
      done;
      !lo
    end
  in
  (* After all timing, since it starts the pool's other domains.  The
     traced run's untraced half leaves it to the traced half, whose log
     covers both. *)
  if (search || spans <> None) && replay_digest ~seed st.log <> digest then begin
    incr failed;
    violations := "digest differs between 1 and nproc domains" :: !violations
  end;
  let p99_ms = ms (p99 r) in
  let lateness = Fbuf.to_array r.lateness in
  {
    attempted = r.requests;
    failed = !failed;
    violations = List.rev !violations;
    ops = r.requests;
    blocks = r.requests;
    wall = ref_s;
    busy = r.busy;
    e2e = [ "throughput_per_s", max_rps; "peak_heap_mb", heap ];
    (* Every request at the reference rate, its tail the limit's own
       p99; refusals, which [p99] counts as misses, fail the run. *)
    series =
      [
        { role = "primary"; label = "reference"; pct = 99.; samples = r.latencies };
        { role = "secondary"; label = "heavy"; pct = 90.; samples = r.heavy_lat };
      ];
    layer =
      [
        "service.submit_ns", r.submit_s /. float_of_int r.requests *. 1e9;
        "service.light_req_us", r.light_drain_s /. float_of_int (max 1 r.light_drained) *. 1e6;
        "service.queue_peak", float_of_int r.peak_queue;
        "service.rejected", float_of_int r.rejected;
        "service.gen_lateness_ms",
        (if lateness = [||] then 0. else ms (Stats.quantile lateness 0.99));
      ];
    notes =
      [
        "reference_rate", Printf.sprintf "%.0f" reference_rate;
        "service_p99_ms", Printf.sprintf "%.4f" p99_ms;
        "service_max_rps", Printf.sprintf "%.1f" max_rps;
        "digest", digest;
        "trials",
        String.concat ";"
          (List.rev_map
             (fun (rate, ok, p, rej) ->
               Printf.sprintf "%.0f:%s:p99=%.1fms:rej=%d" rate (if ok then "pass" else "fail") p rej)
             !trials);
      ];
  }
