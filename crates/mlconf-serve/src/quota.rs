//! Per-tenant admission control: token-bucket rate limits.
//!
//! Every state-advancing request (`POST /sessions`, `suggest`,
//! `report`) is charged against its tenant's bucket before any work —
//! before a session lock is taken, before the journal is touched. A
//! tenant over its rate gets `429 Too Many Requests` with a computed
//! `Retry-After`, so one chatty tenant cannot starve the rest of the
//! fleet of IO-shard time or journal bandwidth.
//!
//! Buckets live in a small fixed number of lock shards (tenant-name
//! hash → shard) so admission checks on distinct tenants almost never
//! contend; the per-check critical section is a handful of float ops.
//!
//! Time is injected by the caller as a monotonic seconds value, which
//! keeps the arithmetic testable without sleeping.

use mlconf_util::hash::fnv1a;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Lock shards for the tenant → bucket map.
const QUOTA_SHARDS: usize = 16;

/// One tenant's token bucket.
struct Bucket {
    /// Tokens available; one request costs one token.
    tokens: f64,
    /// Monotonic seconds at the last refill.
    refilled_at: f64,
}

/// Token-bucket admission control over all tenants.
pub struct TenantQuotas {
    /// Sustained requests per second granted to each tenant.
    rps: f64,
    /// Bucket capacity (burst allowance).
    burst: f64,
    /// Tenant-name-sharded bucket maps.
    shards: Vec<Mutex<HashMap<String, Bucket>>>,
    /// Epoch for the monotonic clock.
    epoch: Instant,
}

impl TenantQuotas {
    /// A limiter granting each tenant `rps` sustained requests per
    /// second with a burst allowance of `burst` (values `<= 0` fall
    /// back to `max(2 * rps, 1)`). Returns `None` when `rps <= 0`:
    /// admission control disabled.
    pub fn new(rps: f64, burst: f64) -> Option<Self> {
        if !rps.is_finite() || rps <= 0.0 {
            return None;
        }
        let burst = if burst > 0.0 && burst.is_finite() {
            burst
        } else {
            (2.0 * rps).max(1.0)
        };
        Some(TenantQuotas {
            rps,
            burst,
            shards: (0..QUOTA_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            epoch: Instant::now(),
        })
    }

    /// The configured sustained rate.
    pub fn rps(&self) -> f64 {
        self.rps
    }

    /// Charges one request to `tenant` at the current time.
    ///
    /// # Errors
    ///
    /// Returns the whole number of seconds (at least 1) the tenant
    /// should wait before retrying — the `Retry-After` value.
    pub fn admit(&self, tenant: &str) -> Result<(), u64> {
        self.admit_at(tenant, self.epoch.elapsed().as_secs_f64())
    }

    /// [`TenantQuotas::admit`] at an explicit monotonic time (tests).
    ///
    /// # Errors
    ///
    /// Returns the `Retry-After` seconds when the bucket is empty.
    pub fn admit_at(&self, tenant: &str, now_secs: f64) -> Result<(), u64> {
        let shard = (fnv1a(tenant.as_bytes()) % QUOTA_SHARDS as u64) as usize;
        let mut buckets = self.shards[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bucket = buckets.entry(tenant.to_owned()).or_insert(Bucket {
            tokens: self.burst,
            refilled_at: now_secs,
        });
        let elapsed = (now_secs - bucket.refilled_at).max(0.0);
        bucket.tokens = (bucket.tokens + elapsed * self.rps).min(self.burst);
        bucket.refilled_at = now_secs;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let wait = (1.0 - bucket.tokens) / self.rps;
            Err((wait.ceil() as u64).max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_below_zero_rps() {
        assert!(TenantQuotas::new(0.0, 0.0).is_none());
        assert!(TenantQuotas::new(-1.0, 0.0).is_none());
        assert!(TenantQuotas::new(f64::NAN, 0.0).is_none());
    }

    #[test]
    fn burst_then_throttle_then_refill() {
        let q = TenantQuotas::new(2.0, 4.0).unwrap();
        // The full burst is admitted...
        for i in 0..4 {
            assert!(q.admit_at("t", 0.0).is_ok(), "burst request {i}");
        }
        // ...then the bucket is dry and Retry-After is computed.
        let wait = q.admit_at("t", 0.0).unwrap_err();
        assert_eq!(wait, 1, "ceil(1 token / 2 rps) = 1s");
        // Refill at 2 tokens/sec: after 1s two more fit.
        assert!(q.admit_at("t", 1.0).is_ok());
        assert!(q.admit_at("t", 1.0).is_ok());
        assert!(q.admit_at("t", 1.0).is_err());
    }

    #[test]
    fn tenants_do_not_share_buckets() {
        let q = TenantQuotas::new(1.0, 1.0).unwrap();
        assert!(q.admit_at("a", 0.0).is_ok());
        assert!(q.admit_at("a", 0.0).is_err());
        assert!(q.admit_at("b", 0.0).is_ok(), "tenant b has its own bucket");
    }

    #[test]
    fn retry_after_is_at_least_one_second() {
        let q = TenantQuotas::new(1000.0, 1.0).unwrap();
        assert!(q.admit_at("t", 0.0).is_ok());
        assert_eq!(q.admit_at("t", 0.0).unwrap_err(), 1);
    }
}
