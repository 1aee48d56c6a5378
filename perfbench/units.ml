(* Per-layer unit costs (Table I shape), timed in the traced run on the
   workload's parameter set and keys.  Each is the median per-call
   time of five batches sized to about [batch_s] seconds. *)

open Common
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate
module Curve = Sc_ec.Curve
module System = Seccloud.System
module Dt = Sc_merkle.Dynamic_tree

let batch_s = 0.03

(* Seconds per call of [f]. *)
let per_call f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  let one = Float.max 1e-7 (now () -. t0) in
  let iters = max 1 (int_of_float (batch_s /. one)) in
  let batch () =
    let t0 = now () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    (now () -. t0) /. float_of_int iters
  in
  Stats.median (Array.init 5 (fun _ -> batch ()))

let us f = per_call f *. 1e6
let ns f = per_call f *. 1e9

(* Fixed machine-drift row: SHA-256 throughput over 64 KiB.  Diagnostic
   only; nothing is normalised by it. *)
let calibration () =
  let buf = String.make 65536 'x' in
  65536. /. per_call (fun () -> Sc_hash.Sha256.digest buf) /. 1e6

(* A null round trip: a storage challenge for a file the server does
   not hold, through the full envelope/transport stack. *)
let null_rpc system =
  let cloud = Seccloud.Cloud.create system ~id:(List.hd (System.cs_ids system)) () in
  let server = Seccloud.Endpoint.Server.create system cloud in
  let transport =
    Seccloud.Transport.create ~peer:"cs" ~public:(System.public system)
      ~handler:(Seccloud.Endpoint.Server.handle server)
      ()
  in
  fun () ->
    match
      Seccloud.Transport.call transport ~expect:"storage_response"
        (Seccloud.Wire.Storage_challenge { file = "none"; indices = [ 0 ] })
    with
    | Ok _ -> ()
    | Error _ -> failwith "null rpc failed"

(* Seconds per accepted [Lookup] submit, and per [Lookup] answered by
   a drain: medians over batches of [lookups] submits, each batch
   drained in full (and the drain timed apart) so the queues never
   fill and every submit is accepted. *)
let service_lookups svc =
  let module Service = Sc_service.Service in
  let lookups = 256 in
  let batch () =
    let t0 = now () in
    for i = 1 to lookups do
      match Service.submit svc ~tenant:(string_of_int i) Service.Lookup with
      | Ok () -> ()
      | Error e -> Format.kasprintf failwith "lookup refused: %a" Service.pp_error e
    done;
    let t1 = now () in
    ignore (Sys.opaque_identity (Service.drain svc));
    let per x = x /. float_of_int lookups in
    per (t1 -. t0), per (now () -. t1)
  in
  ignore (batch ());
  let batches = Array.init 41 (fun _ -> batch ()) in
  Stats.median (Array.map fst batches), Stats.median (Array.map snd batches)

let dynamic_update_1m () =
  let n = 1 lsl 20 in
  let t = Dt.of_leaf_hashes (List.init n (fun i -> Dt.leaf_hash (string_of_int i))) in
  let rng = Random.State.make [| n |] in
  let leaf = Dt.leaf_hash "fresh" in
  us (fun () -> Dt.modify t (Random.State.int rng n) leaf)

let measure ~seed =
  let system =
    System.create ~params:Params.small ~seed:("units:" ^ seed) ~cs_ids:[ "cs-0" ]
      ~da_id:"da" ()
  in
  let pub = System.public system in
  let prm = pub.Sc_ibc.Setup.prm in
  let rng = rng_of_seed ("units:" ^ seed) in
  let bs = System.bytes_source system in
  let scalar () = Params.random_scalar prm ~bytes_source:bs in
  let g = prm.Params.g in
  let p = Curve.mul prm.Params.curve (scalar ()) g in
  let q = Curve.mul prm.Params.curve (scalar ()) g in
  let k = scalar () in
  let mont = Sc_bignum.Montgomery.create prm.Params.p in
  let ma = Sc_bignum.Montgomery.to_mont mont (Sc_bignum.Nat.of_int 0x1234567) in
  let mb = Sc_bignum.Montgomery.to_mont mont prm.Params.q in
  let x = Sc_field.Fp2.make (Sc_field.Fp.of_int prm.Params.fp 3) (Sc_field.Fp.of_int prm.Params.fp 5) in
  let pc = Tate.precomp_for prm q in
  let key = System.register_user system "owner" in
  let kb = payload rng 1024 in
  let msg = payload rng 256 in
  let signature = Sc_ibc.Ibs.sign pub key ~bytes_source:bs msg in
  let blocks = List.init 8 (fun _ -> payload rng 256) in
  let upload =
    Sc_storage.Signer.sign_file pub key ~bytes_source:bs ~cs_id:"cs-0" ~da_id:"da"
      ~file:"u" blocks
  in
  let sb = upload.Sc_storage.Signer.blocks.(0) in
  let da_key = System.da_key system in
  let dc, ds =
    Sc_storage.Dynamic.init pub key ~bytes_source:bs ~cs_id:"cs-0" ~da_id:"da"
      ~file:"d" blocks
  in
  let drbg = Sc_hash.Drbg.create ~seed:("units-drbg:" ^ seed) in
  let leaves = List.init 16 (fun i -> "leaf-" ^ string_of_int i) in
  let tree = Sc_merkle.Tree.build leaves in
  let root = Sc_merkle.Tree.root tree in
  let cs_key = System.cs_key system "cs-0" in
  let server = Sc_storage.Server.create Sc_storage.Server.Honest ~drbg in
  let numeric =
    List.init 16 (fun i -> Sc_storage.Block.encode_ints [ i; 2 * i; 3 * i ])
  in
  Sc_storage.Server.store server
    (Sc_storage.Signer.sign_file pub key ~bytes_source:bs ~cs_id:"cs-0" ~da_id:"da"
       ~file:"c" numeric);
  let service = Sc_compute.Task.random_service ~drbg ~n_positions:16 ~n_tasks:16 in
  let execute () =
    Sc_compute.Executor.run pub ~cs_key ~server ~behaviour:Sc_compute.Executor.Honest
      ~drbg ~owner:"owner" ~file:"c" service
  in
  let execution = execute () in
  let warrant =
    Sc_ibc.Warrant.issue pub key ~bytes_source:bs ~delegatee:"da" ~now:0.0
      ~lifetime:1e9 ~scope:"units"
  in
  let commitment = Sc_audit.Protocol.commitment_of_execution execution in
  let challenge =
    Sc_audit.Protocol.make_challenge ~drbg ~n_tasks:16 ~samples:8 ~warrant
  in
  let responses =
    Option.get (Sc_audit.Protocol.respond pub ~now:1.0 execution challenge)
  in
  let rpc = null_rpc system in
  let module Telemetry = Sc_telemetry.Telemetry in
  let rpc_us = us rpc in
  Telemetry.set_sink (Some ignore);
  let rpc_traced_us = us rpc in
  Telemetry.set_sink None;
  let svc =
    Sc_service.Service.create ~params:Params.small ~seed:("units-service:" ^ seed) ()
  in
  let submit_s, drain_s = service_lookups svc in
  (* Sequential bindings: the dynamic rows must run update, then audit
     against the statement published after the updates. *)
  let dyn_op_us =
    us (fun () ->
        Sc_storage.Dynamic.update dc ds
          ~index:(Random.State.int rng (Sc_storage.Dynamic.count dc))
          msg)
  in
  let stmt = Sc_storage.Dynamic.publish_root dc ~bytes_source:bs in
  let dyn_audit_us =
    us (fun () ->
        Sc_storage.Dynamic.audit pub ~verifier_key:da_key ~owner:"owner" ~file:"d"
          ~root_statement:stmt ds ~drbg ~samples:8)
  in
  let rows =
    [
      "calib.sha256_mb_s", calibration ();
      "bignum.mont_mul_ns", ns (fun () -> Sc_bignum.Montgomery.mul mont ma mb);
      "field.fp2_mul_ns", ns (fun () -> Sc_field.Fp2.mul prm.Params.fp x x);
      "ec.mul_var_us", us (fun () -> Curve.mul prm.Params.curve k p);
      "ec.mul_fixed_us", us (fun () -> Params.mul_g prm k);
      "ec.point_mul_us", us (fun () -> Curve.mul prm.Params.curve k g);
      "pairing.full_us", us (fun () -> Tate.pairing prm g g);
      "pairing.precomp_us", us (fun () -> Tate.pairing_precomp prm p pc);
      "pairing.multi2_us", us (fun () -> Tate.multi_pairing prm [ p, q; q, p ]);
      "hash.sha256_ns_per_kb", ns (fun () -> Sc_hash.Sha256.digest kb);
      "ibs.sign_us", us (fun () -> Sc_ibc.Ibs.sign pub key ~bytes_source:bs msg);
      "ibs.verify_us", us (fun () -> Sc_ibc.Ibs.verify pub ~signer:"owner" ~msg signature);
      ( "storage.sign_block_us",
        us (fun () ->
            Sc_storage.Signer.sign_file pub key ~bytes_source:bs ~cs_id:"cs-0"
              ~da_id:"da" ~file:"s" [ msg ]) );
      ( "storage.verify_block_us",
        us (fun () ->
            Sc_storage.Signer.verify_block pub ~verifier_key:da_key ~role:`Da
              ~owner:"owner" sb.Sc_storage.Signer.block sb) );
      "dynamic.op_us", dyn_op_us;
      "dynamic.audit_us", dyn_audit_us;
      "merkle.build_us", us (fun () -> Sc_merkle.Tree.build leaves);
      ( "merkle.proof_verify_us",
        us (fun () ->
            Sc_merkle.Tree.verify_proof ~root ~leaf_payload:"leaf-5"
              (Sc_merkle.Tree.proof tree 5)) );
      "compute.execute_us", us execute;
      ( "audit.verify_us",
        us (fun () ->
            Sc_audit.Protocol.verify pub ~verifier_key:da_key ~role:`Da ~owner:"owner"
              commitment challenge responses) );
      "transport.rpc_null_us", rpc_us;
      "transport.rpc_traced_us", rpc_traced_us;
      "service.submit_ns", submit_s *. 1e9;
      "service.light_req_us", drain_s *. 1e6;
      ( "parallel.round_overhead_us",
        with_domains nproc (fun () ->
            us (fun () -> Sc_parallel.run_tasks (List.init nproc (fun _ () -> ())))) );
      "telemetry.span_ns", ns (fun () -> Telemetry.with_span ~name:"bench.unit" Fun.id);
    ]
  in
  (* Built last and dropped before returning: 2^20 leaves are the
     largest live structure of any run. *)
  rows @ [ "merkle.dynamic_update_us_1m", dynamic_update_1m () ]
