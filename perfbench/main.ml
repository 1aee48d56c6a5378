(* The benchmark program: one workload, one seed, one run.

     main.exe --workload ingest|audit|service --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics untraced.  --trace 1 runs
   the workload's loop twice, S/2 untraced then S/2 traced, and
   reports the per-layer metrics: unit costs, counts per operation
   from the libraries' own counters, and the traced time split by
   layer.  The last line of output is the JSON result; lines before it
   start with '#' and repeat every figure with its unit, plus what is
   recorded alongside (seed, domains, tail percentiles, ...).  The
   metrics reported are those BENCHMARK.json lists, read from the
   current directory.  The exit code is non-zero on any correctness
   violation. *)

open Common

(* Set-up runs at least [setup_repeats] times and for at least
   [setup_min_s] seconds, and setup_s is the median of their times at
   reference speed ([Common.Speed]): on a shared two-vCPU VM the speed
   drifts over seconds, and five ingest set-ups (0.15 s each) all
   landed in one stretch of it. *)
let setup_repeats = 5
let setup_min_s = 4.

type measure =
  spans:Spans.t option -> seconds:float -> search:bool -> Common.outcome

let workloads : (string * (seed:string -> measure)) list =
  [
    ( "ingest",
      fun ~seed ->
        let st = Wl_ingest.setup ~seed in
        fun ~spans ~seconds ~search:_ -> Wl_ingest.measure st ~spans ~seconds );
    ( "audit",
      fun ~seed ->
        let st = Wl_audit.setup ~seed in
        fun ~spans ~seconds ~search:_ -> Wl_audit.measure st ~spans ~seconds );
    ( "service",
      fun ~seed ->
        let st = Wl_service.setup ~seed in
        fun ~spans ~seconds ~search -> Wl_service.measure ~seed st ~spans ~seconds ~search );
  ]

(* The metric names and units come from BENCHMARK.json, the single
   list the result must match; a name this program cannot compute is an
   error, not a silently missing metric. *)
let listed key =
  let json =
    In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    |> Sc_telemetry.Json.parse_exn
  in
  let str k m = Option.get (Sc_telemetry.Json.to_string (Sc_telemetry.Json.member k m)) in
  match Sc_telemetry.Json.member key json with
  | Some (Sc_telemetry.Json.Array ms) -> List.map (fun m -> str "name" m, str "unit" m) ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

let value_of ~what sources k =
  match List.find_map (fun src -> List.assoc_opt k src) sources with
  | Some v -> v
  | None -> failwith (Printf.sprintf "no %s value for %s" what k)

(* Counters read around the untraced half of a traced run. *)
let counted =
  [
    "curve.mul.wnaf";
    "pairing.count";
    "pairing.precomp.hit";
    "pairing.precomp.miss";
    "hash.sha256.digests";
    "ibs.sign";
    "audit.samples_checked";
    "transport.rpc";
    "transport.attempts";
    "wire.tx.bytes";
    "wire.rx.bytes";
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let ratio a b = if b = 0. then 0. else a /. b

let traced_layers ~seed ~measure ~seconds =
  let per_layer = listed "per_layer" in
  (* The attribution layers are those with an attr.<layer>_share row. *)
  let attr_layers =
    List.filter_map
      (fun (k, _) ->
        if String.starts_with ~prefix:"attr." k && String.ends_with ~suffix:"_share" k
        then Some (String.sub k 5 (String.length k - 11))
        else None)
      per_layer
  in
  let half = seconds /. 2. in
  let g0 = Gc.quick_stat () in
  let o1, counts = counter_delta counted (fun () -> measure ~spans:None ~seconds:half ~search:false) in
  let g1 = Gc.quick_stat () in
  let spans = Spans.create (probes ()) in
  let o2 = measure ~spans:(Some spans) ~seconds:half ~search:false in
  let units = Units.measure ~seed in
  let unit_of k = List.assoc k units in
  let costs =
    [|
      unit_of "ec.mul_var_us" *. 1e-6;
      unit_of "pairing.precomp_us" *. 1e-6;
      unit_of "pairing.multi2_us" *. 0.5e-6;
      unit_of "hash.sha256_ns_per_kb" *. 1e-9 /. 1024.;
    |]
  in
  let shares =
    Spans.attribute ~total:o2.wall ~prim_layers:probe_layers ~costs (Spans.spans spans)
  in
  (* The shares add up to the traced time by construction ([other] is
     the remainder).  What can go wrong is a negative share, from spans
     that overlap or outlast the loop, or a layer with no row. *)
  let attribution_ok =
    List.for_all (fun (k, v) -> List.mem k attr_layers && v >= -1e-9 *. o2.wall) shares
  in
  let c k = float_of_int (List.assoc k counts) in
  let ops = float_of_int o1.ops and blocks = float_of_int o1.blocks in
  let derived =
    [
      "ec.muls_per_block", ratio (c "curve.mul.wnaf") blocks;
      "pairing.per_block", ratio (c "pairing.count") blocks;
      "pairing.per_audit", ratio (c "pairing.count") ops;
      ( "pairing.precomp_hit_ratio",
        ratio (c "pairing.precomp.hit") (c "pairing.precomp.hit" +. c "pairing.precomp.miss") );
      "hash.digests_per_op", ratio (c "hash.sha256.digests") ops;
      "storage.sign_share", ratio (c "ibs.sign" *. unit_of "storage.sign_block_us" *. 1e-6) o1.busy;
      "audit.samples_per_s", ratio (c "audit.samples_checked") o1.wall;
      "transport.attempts_per_rpc", ratio (c "transport.attempts") (c "transport.rpc");
      "wire.bytes_per_op", ratio (c "wire.tx.bytes" +. c "wire.rx.bytes") ops;
      "transport.busy_share", ratio (c "transport.rpc" *. unit_of "transport.rpc_null_us" *. 1e-6) o1.busy;
      "trace_overhead_frac", ratio (ratio o2.busy (float_of_int o2.ops)) (ratio o1.busy ops) -. 1.;
      "gc.minor_words_per_op", ratio (g1.Gc.minor_words -. g0.Gc.minor_words) ops;
      "gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
      "gc.major_words_per_op", ratio (g1.Gc.major_words -. g0.Gc.major_words) ops;
      "trace.op_ms", ratio o2.wall (float_of_int o2.ops) *. 1e3;
      (* Queueing rows of workloads that do not go through the service
         front end. *)
      "service.queue_peak", 0.;
      "service.rejected", 0.;
      "service.gen_lateness_ms", 0.;
    ]
    @ List.map
        (fun l ->
          "attr." ^ l ^ "_share",
          ratio (Option.value ~default:0. (List.assoc_opt l shares)) o2.wall)
        attr_layers
  in
  (* The workload's own figures override the generic rows. *)
  let value = value_of ~what:"per-layer" [ o1.layer; derived; units ] in
  let violations =
    o1.violations @ o2.violations
    @ if attribution_ok then [] else [ "negative or unlisted layer share in the traced run" ]
  in
  ( { o1 with
      attempted = o1.attempted + o2.attempted;
      failed = o1.failed + o2.failed + (if attribution_ok then 0 else 1);
      violations;
      notes = o1.notes;
    },
    List.map (fun (k, unit) -> k, unit, value k) per_layer )

let () =
  let workload = ref "" and seed = ref "" and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      "--workload", Arg.Set_string workload, " ingest | audit | service";
      "--seed", Arg.Set_string seed, " input seed";
      "--seconds", Arg.Set_float seconds, " measured seconds";
      "--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics";
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let start =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !seed = "" || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seed, a positive --seconds and --trace 0|1 are required";
    exit 2
  end;
  (* Forced once here: the libraries' first span close otherwise
     forces this lazy value on whichever domains get there first, and
     two at once raise CamlinternalLazy.Undefined. *)
  ignore (Sc_telemetry.Telemetry.log_buckets ());
  (* Timed work runs on one domain.  With nproc = 2 on a shared
     two-vCPU host, the pool's second domain waits on a vCPU that
     other tenants also use: interleaved 30 s service runs (with
     one-block heavy files) gave p99 9.6-19.5 ms at two domains against
     9.6-10.8 ms at one, and the
     Algorithm-1 audits (fanned out per sample) had the widest tail
     spread of the audit workload.  The nproc-domain path is still
     exercised: the service digest is replayed at nproc domains, and
     parallel.round_overhead_us is timed there. *)
  Sc_parallel.set_domain_count 1;
  let setup_times = Fbuf.create () in
  let measure =
    let first = now () and speed = Speed.create () in
    let rec go n =
      let m = Speed.time speed setup_times (fun () -> start ~seed:!seed) in
      if n >= setup_repeats && now () -. first >= setup_min_s then m else go (n + 1)
    in
    let m = go 1 in
    Speed.finish speed;
    m
  in
  let setup_s = Stats.median (Fbuf.to_array setup_times) in
  let outcome, metrics =
    if !trace = 0 then begin
      let o = measure ~spans:None ~seconds:!seconds ~search:true in
      let peak_heap_mb = peak_heap_mb () in
      let latency, notes = List.split (List.map latency_metrics o.series) in
      let value =
        value_of ~what:"end-to-end"
          (o.e2e :: [ "setup_s", setup_s; "peak_heap_mb", peak_heap_mb ] :: latency)
      in
      ( { o with notes = o.notes @ List.concat notes },
        List.map (fun (k, unit) -> k, unit, value k) (listed "end_to_end") )
    end
    else traced_layers ~seed:!seed ~measure ~seconds:!seconds
  in
  Printf.printf
    "# perfbench workload=%s seed=%s trace=%d seconds=%g nproc=%d domains=%d ocaml=%s params=small\n"
    !workload !seed !trace !seconds nproc (Sc_parallel.domain_count ()) Sys.ocaml_version;
  if !trace = 0 then
    Printf.printf "# calib.sha256_mb_s = %.4f MB/s\n" (Units.calibration ());
  Printf.printf "# fail_frac = %.6f (%d of %d)\n"
    (ratio (float_of_int outcome.failed) (float_of_int outcome.attempted))
    outcome.failed outcome.attempted;
  List.iter (fun (k, v) -> Printf.printf "# %s = %s\n" k v) outcome.notes;
  List.iter (fun (k, unit, v) -> Printf.printf "# %s = %.6g %s\n" k v unit) metrics;
  List.iter (fun v -> Printf.printf "# violation: %s\n" v) outcome.violations;
  let correct = outcome.violations = [] && outcome.failed = 0 in
  print_result ~correct ~attempted:outcome.attempted ~failed:outcome.failed metrics;
  if not correct then exit 1
