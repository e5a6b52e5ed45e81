/* CPU affinity of the calling process, as a bit mask of CPUs 0-61.
   OCaml's Unix library has no binding for sched_{get,set}affinity. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

#define MAX_CPUS 62

value rr_bench_get_affinity(value unit)
{
  cpu_set_t set;
  intnat mask = 0;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_long(0);
  for (int i = 0; i < MAX_CPUS; i++)
    if (CPU_ISSET(i, &set)) mask |= (intnat)1 << i;
  return Val_long(mask);
}

value rr_bench_set_affinity(value mask)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < MAX_CPUS; i++)
    if ((Long_val(mask) >> i) & 1) CPU_SET(i, &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
