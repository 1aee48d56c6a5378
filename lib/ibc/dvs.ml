open Sc_ec
module Params = Sc_pairing.Params
module Tate = Sc_pairing.Tate

type t = { u : Curve.point; sigma : Tate.gt }

(* The designated verifier's key material is the fixed pairing
   argument in every operation here, so all three entry points replay
   its cached Miller tables (all points involved are subgroup members:
   Q_B and sk by construction, V/W from verified signatures). *)

let designate (pub : Setup.public) (raw : Ibs.t) ~verifier =
  let prm = pub.prm in
  let q_b = Setup.q_of_id pub verifier in
  { u = raw.Ibs.u; sigma = Tate.pairing_precomp prm raw.Ibs.v (Tate.precomp_for prm q_b) }

(* Σ_B = ê(V, Q_B) with V = k·sk_ID equals ê(sk_ID, Q_B)^k by
   bilinearity, so one pairing per (signer, verifier) pair and a
   fixed-base power in GT per signature replace a generic G1
   multiplication and a pairing per signature.  The base is the
   Sakai–Ohgishi–Kasahara key the two identities share, so the table is
   kept by its owner and never enters the point-keyed caches of
   Params. *)
type table = { prm : Params.t; comb : Tate.gt_table }

let table (pub : Setup.public) (key : Setup.identity_key) ~verifier =
  let prm = pub.prm in
  let q_b = Setup.q_of_id pub verifier in
  let shared = Tate.pairing_precomp prm key.Setup.sk (Tate.precomp_for prm q_b) in
  { prm; comb = Tate.gt_table prm shared }

let sigma t k = Tate.gt_pow_table t.prm t.comb k

let verifier (pub : Setup.public) ~verifier_key ~signer =
  let prm = pub.prm in
  let q_id = Setup.q_of_id pub signer in
  let pc = Tate.precomp_for prm verifier_key.Setup.sk in
  fun ~msg { u; sigma } ->
    Curve.on_curve prm.curve u
    &&
    let w = Ibs.verification_point pub ~q_id ~msg ~u in
    Tate.gt_equal sigma (Tate.pairing_precomp prm w pc)

let verify pub ~verifier_key ~signer ~msg d =
  verifier pub ~verifier_key ~signer ~msg d

let simulate (pub : Setup.public) ~verifier_key ~signer ~msg ~bytes_source =
  let prm = pub.prm in
  let q_id = Setup.q_of_id pub signer in
  let r = Params.random_scalar prm ~bytes_source in
  let u = Curve.mul_precomp prm.curve (Params.precomp_for prm q_id) r in
  let w = Ibs.verification_point pub ~q_id ~msg ~u in
  {
    u;
    sigma =
      Tate.pairing_precomp prm w (Tate.precomp_for prm verifier_key.Setup.sk);
  }
