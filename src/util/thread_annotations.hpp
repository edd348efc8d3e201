// Clang thread-safety analysis attributes, wrapped so the rest of the code
// can annotate lock discipline without caring about the compiler.
//
// Under Clang the SC_* macros expand to the __attribute__((...)) spellings
// consumed by -Wthread-safety (promoted to an error in the CI job that
// builds with -Werror=thread-safety); under GCC and MSVC they expand to
// nothing, so annotated headers stay warning-free everywhere.
//
// The standard library's std::mutex is *not* a Clang "capability", so these
// attributes are only useful on our own synchronization types — see
// util/sync.hpp for the annotated Mutex / MutexLock wrappers that
// every concurrent component in the library uses. Conventions are written
// up in DESIGN.md §8.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SC_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif

#ifndef SC_THREAD_ANNOTATION
#define SC_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability (e.g. a mutex wrapper).
#define SC_CAPABILITY(name) SC_THREAD_ANNOTATION(capability(name))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define SC_SCOPED_CAPABILITY SC_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while `x` is held.
#define SC_GUARDED_BY(x) SC_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define SC_PT_GUARDED_BY(x) SC_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities held on entry (and exit).
#define SC_REQUIRES(...) \
  SC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities; caller must not hold them.
#define SC_ACQUIRE(...) SC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities; caller must hold them.
#define SC_RELEASE(...) SC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `result`.
#define SC_TRY_ACQUIRE(result, ...) \
  SC_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))

/// Function must be called *without* the listed capabilities held
/// (deadlock prevention: public methods that lock internally).
#define SC_EXCLUDES(...) SC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Return value is a reference to a capability-guarded object.
#define SC_RETURN_CAPABILITY(x) SC_THREAD_ANNOTATION(lock_returned(x))

/// Opts a function out of the analysis (rare; justify at each use).
#define SC_NO_THREAD_SAFETY_ANALYSIS \
  SC_THREAD_ANNOTATION(no_thread_safety_analysis)
