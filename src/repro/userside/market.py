"""A minimal app-market model: the ecosystem loop closing.

Sections 1 and 4.2 describe how per-device detections become ecosystem
pressure: bad ratings depress downloads, developer reports justify a
takedown request, and Google Play's Remote Application Removal wipes a
pulled app from devices that installed it ("propagating the effect of
detection from one device to others").

Two scales coexist:

* the **per-record** API (``download`` / ``rate``) keeps an
  :class:`InstallRecord` per install -- right for the small examples
  and for asserting remote removal device by device;
* the **bulk** API (``download_batch`` / ``rate_batch``) moves counters
  only, so the fleet driver (:mod:`repro.reporting.fleet`) can push
  millions of users through a listing in O(1) memory.

Randomness is explicit everywhere: the market owns a seeded RNG, and
every stochastic method accepts an ``rng`` override so callers (the
fleet driver, tests) can thread their own seeded stream through and get
reproducible runs end to end -- nothing touches the module-level
``random`` state.

Takedowns have one path: devices send signed reports to a
:class:`repro.reporting.ReportServer`, its sliding-window policy gives
the verdict, and ``process_server_takedowns`` pulls every live listing
signed by an offending key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.apk.package import Apk


@dataclass
class Listing:
    """One app listing on the market.

    Ratings are held as (sum, count) -- a million one-star reviews from
    a fleet run cost two integers, not a list.
    """

    app_name: str
    apk: Apk
    publisher_key_hex: str
    rating_sum: int = 0
    rating_count: int = 0
    downloads: int = 0
    bulk_installs: int = 0       # active installs tracked only as a count
    taken_down: bool = False

    @property
    def average_rating(self) -> float:
        if not self.rating_count:
            return 3.0           # neutral default for an unrated listing
        return self.rating_sum / self.rating_count


@dataclass
class InstallRecord:
    """An app installed on a user device (for remote removal)."""

    device_label: str
    listing: Listing
    removed: bool = False


class Market:
    """Listings, downloads, ratings, takedowns, remote removal."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self.listings: List[Listing] = []
        self.installs: List[InstallRecord] = []

    # -- publishing ---------------------------------------------------------

    def publish(self, app_name: str, apk: Apk) -> Listing:
        """List an APK under its signing identity.

        One publisher key may sign many listings (a pirate reselling
        several repackaged apps); every one of them is kept.
        """
        key = apk.cert.fingerprint_hex()
        listing = Listing(app_name=app_name, apk=apk, publisher_key_hex=key)
        self.listings.append(listing)
        return listing

    # -- user behavior ------------------------------------------------------

    @staticmethod
    def _proceed_probability(listing: Listing) -> float:
        # 5 stars -> ~95% proceed; 1 star -> ~15%.
        return 0.15 + 0.2 * (listing.average_rating - 1)

    def download(
        self,
        device_label: str,
        listing: Listing,
        rng: Optional[random.Random] = None,
    ) -> Optional[InstallRecord]:
        """A user downloads an app -- unless it was taken down, or its
        rating has scared them off (probability scales with rating)."""
        if listing.taken_down:
            return None
        rng = rng or self._rng
        if rng.random() > self._proceed_probability(listing):
            return None
        listing.downloads += 1
        record = InstallRecord(device_label=device_label, listing=listing)
        self.installs.append(record)
        return record

    def download_batch(
        self,
        listing: Listing,
        attempts: int,
        rng: Optional[random.Random] = None,
    ) -> int:
        """``attempts`` users consider downloading; returns how many did.

        Counter-only (no per-install records): the binomial outcome is
        sampled from the supplied RNG so fleet runs stay reproducible,
        and the installs are tracked in ``listing.bulk_installs``.
        """
        if listing.taken_down or attempts <= 0:
            return 0
        rng = rng or self._rng
        probability = self._proceed_probability(listing)
        # Normal approximation of Binomial(attempts, p); exact loop for
        # small batches where the approximation is visibly coarse.
        if attempts < 64:
            installed = sum(
                1 for _ in range(attempts) if rng.random() <= probability
            )
        else:
            mean = attempts * probability
            sigma = (attempts * probability * (1.0 - probability)) ** 0.5
            installed = int(round(rng.gauss(mean, sigma)))
            installed = max(0, min(attempts, installed))
        listing.downloads += installed
        listing.bulk_installs += installed
        return installed

    def rate(self, listing: Listing, stars: int) -> None:
        if not 1 <= stars <= 5:
            raise ValueError("ratings are 1-5 stars")
        listing.rating_sum += stars
        listing.rating_count += 1

    def rate_batch(self, listing: Listing, stars: int, count: int) -> None:
        """``count`` users leave the same star rating (bulk counters)."""
        if not 1 <= stars <= 5:
            raise ValueError("ratings are 1-5 stars")
        if count < 0:
            raise ValueError("rating count cannot be negative")
        listing.rating_sum += stars * count
        listing.rating_count += count

    # -- enforcement --------------------------------------------------------

    def process_server_takedowns(self, server) -> List[Listing]:
        """Pull every listing a :class:`ReportServer` has evidence against.

        The server's sliding-window policy decides; the market pulls
        every live listing signed by an offending key and remotely
        removes it from every device that installed it.  Returns the
        listings pulled by this call.
        """
        pulled = []
        for _, offender_key in server.takedown_candidates():
            pulled.extend(self._take_down(offender_key))
        return pulled

    def _take_down(self, offender_key: str) -> List[Listing]:
        pulled = [
            listing
            for listing in self.listings
            if listing.publisher_key_hex == offender_key and not listing.taken_down
        ]
        for listing in pulled:
            listing.taken_down = True
            # Remote Application Removal: per-record and bulk installs alike.
            for record in self.installs:
                if record.listing is listing:
                    record.removed = True
            listing.bulk_installs = 0
        return pulled

    # -- metrics ------------------------------------------------------------

    def active_installs(self, listing: Listing) -> int:
        return listing.bulk_installs + sum(
            1
            for record in self.installs
            if record.listing is listing and not record.removed
        )

    def summary(self) -> str:
        lines = []
        for listing in self.listings:
            status = "TAKEN DOWN" if listing.taken_down else "live"
            lines.append(
                f"{listing.app_name} by {listing.publisher_key_hex[:12]}...: "
                f"{listing.downloads} downloads, "
                f"{listing.average_rating:.1f} stars, {status}"
            )
        return "\n".join(lines)
