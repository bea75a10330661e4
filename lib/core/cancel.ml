type t = Never | Deadline of float

exception Cancelled

let never = Never
let of_deadline d = Deadline d

let cancelled = function
  | Never -> false
  | Deadline d -> Rta_obs.now () > d

let check t = if cancelled t then raise Cancelled
