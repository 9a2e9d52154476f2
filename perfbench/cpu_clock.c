/* The calling thread's CPU clock, in ns. Unlike the monotonic clock, it
   does not advance while the thread is descheduled: neither while other
   processes run nor while the hypervisor runs someone else on the vCPU
   (steal time). */

#include <time.h>
#include <caml/mlvalues.h>

value perfbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
