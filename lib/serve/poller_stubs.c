/* Readiness notification for the serving loop (poller.ml).

   Three calls over one level-triggered epoll set: create, ctl (add,
   change or drop a descriptor's interest) and wait.  Linux only, like
   benchmark/affinity_stubs.c; any other system fails here at build time.

   [wait] fills a caller-owned OCaml int array with (descriptor, flags)
   pairs, so a wake-up allocates nothing on the OCaml heap. */

#ifndef __linux__
#error "lib/serve needs Linux epoll"
#endif

#define CAML_NAME_SPACE
#include <errno.h>
#include <stdint.h>
#include <sys/epoll.h>
#include <unistd.h>
#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* Interest and readiness bits, as poller.ml spells them. */
#define RR_READABLE 1
#define RR_WRITABLE 2

/* Events taken per wait; more ready descriptors come back on the next
   wait, since epoll is level-triggered here. */
#define RR_MAX_EVENTS 256

/* The epoll descriptor, -1 once closed. */
#define Epfd_val(v) (*((int *) Data_custom_val(v)))

static void poller_finalize(value v)
{
  if (Epfd_val(v) >= 0) close(Epfd_val(v));
  Epfd_val(v) = -1;
}

static struct custom_operations poller_ops = {
  "rr_serve.poller",
  poller_finalize,
  custom_compare_default,
  custom_hash_default,
  custom_serialize_default,
  custom_deserialize_default,
  custom_compare_ext_default,
  custom_fixed_length_default
};

value rr_poller_create(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(v);
  int epfd = epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) caml_uerror("epoll_create1", Nothing);
  v = caml_alloc_custom(&poller_ops, sizeof(int), 0, 1);
  Epfd_val(v) = epfd;
  CAMLreturn(v);
}

value rr_poller_close(value v)
{
  poller_finalize(v);
  return Val_unit;
}

/* [old] is the interest registered now (0: none), [interest] the one
   wanted.  A descriptor is added, changed or dropped accordingly. */
value rr_poller_ctl(value v, value vfd, value vold, value vinterest)
{
  int fd = Int_val(vfd), old = Int_val(vold), interest = Int_val(vinterest);
  if (old == interest) return Val_unit;
  struct epoll_event ev;
  ev.events = ((interest & RR_READABLE) ? EPOLLIN : 0)
              | ((interest & RR_WRITABLE) ? EPOLLOUT : 0);
  ev.data.u64 = 0;
  ev.data.fd = fd;
  int op = old == 0 ? EPOLL_CTL_ADD : interest == 0 ? EPOLL_CTL_DEL : EPOLL_CTL_MOD;
  if (epoll_ctl(Epfd_val(v), op, fd, &ev) != 0) caml_uerror("epoll_ctl", Nothing);
  return Val_unit;
}

/* Block until a registered descriptor is ready or [timeout] ms pass
   (-1: no limit).  Writes [fd; flags] pairs into [ready] and returns
   their count; a hangup or error reads as both readable and writable,
   so whichever side the caller is waiting on sees it.  A signal ends
   the wait with 0 descriptors, after its OCaml handler has run. */
value rr_poller_wait(value v, value ready, value vtimeout)
{
  CAMLparam3(v, ready, vtimeout);
  int epfd = Epfd_val(v), timeout = Int_val(vtimeout);
  int max = (int) (Wosize_val(ready) / 2);
  if (max > RR_MAX_EVENTS) max = RR_MAX_EVENTS;
  struct epoll_event evs[RR_MAX_EVENTS];
  caml_enter_blocking_section();
  int n = epoll_wait(epfd, evs, max, timeout);
  int err = errno;
  caml_leave_blocking_section();
  if (n < 0) {
    if (err != EINTR) caml_unix_error(err, "epoll_wait", Nothing);
    caml_process_pending_actions();
    n = 0;
  }
  /* Immediate integers: no write barrier needed. */
  for (int i = 0; i < n; i++) {
    uint32_t e = evs[i].events;
    Field(ready, 2 * i) = Val_int(evs[i].data.fd);
    Field(ready, 2 * i + 1) =
      Val_int(((e & (EPOLLIN | EPOLLHUP | EPOLLERR)) ? RR_READABLE : 0)
              | ((e & (EPOLLOUT | EPOLLHUP | EPOLLERR)) ? RR_WRITABLE : 0));
  }
  CAMLreturn(Val_int(n));
}
