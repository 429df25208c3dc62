"""Country/continent reference data and the Location value type.

Continent codes follow the usual two-letter convention: AF, AN, AS, EU,
NA, OC, SA. The country table is not exhaustive; it covers the countries
that appear in the bundled provider catalog plus the common cloud-region
host countries. Unknown country codes raise so bad catalog data is caught
at load time instead of silently misplacing servers.
"""

from __future__ import annotations

from typing import NamedTuple

from .records import Checked

CONTINENTS = frozenset({"AF", "AN", "AS", "EU", "NA", "OC", "SA"})

COUNTRY_CONTINENT: dict[str, str] = {
    # Europe
    "AT": "EU", "BE": "EU", "BG": "EU", "CH": "EU", "CZ": "EU", "DE": "EU",
    "DK": "EU", "EE": "EU", "ES": "EU", "FI": "EU", "FR": "EU", "GB": "EU",
    "GR": "EU", "HR": "EU", "HU": "EU", "IE": "EU", "IS": "EU", "IT": "EU",
    "LT": "EU", "LU": "EU", "LV": "EU", "NL": "EU", "NO": "EU", "PL": "EU",
    "PT": "EU", "RO": "EU", "RS": "EU", "SE": "EU", "SI": "EU", "SK": "EU",
    "UA": "EU",
    # Asia
    "AE": "AS", "BH": "AS", "CN": "AS", "HK": "AS", "ID": "AS", "IL": "AS",
    "IN": "AS", "JP": "AS", "KR": "AS", "MY": "AS", "PH": "AS", "QA": "AS",
    "SA": "AS", "SG": "AS", "TH": "AS", "TR": "AS", "TW": "AS", "VN": "AS",
    "RU": "AS",
    # North America
    "CA": "NA", "CR": "NA", "MX": "NA", "PA": "NA", "US": "NA",
    # South America
    "AR": "SA", "BR": "SA", "CL": "SA", "CO": "SA", "PE": "SA",
    # Africa
    "EG": "AF", "KE": "AF", "MA": "AF", "NG": "AF", "ZA": "AF",
    # Oceania
    "AU": "OC", "NZ": "OC",
}


class UnknownCountryError(ValueError):
    """Raised for country codes missing from the bundled table."""


def continent_of(country: str) -> str:
    """Return the continent code for a two-letter country code."""
    cc = country.upper()
    try:
        return COUNTRY_CONTINENT[cc]
    except KeyError:
        raise UnknownCountryError(f"unknown country code: {country!r}") from None


class _Location(NamedTuple):
    country: str
    city: str | None
    continent: str


class Location(Checked, _Location):
    """A resolved server location: country, optional city, continent."""

    __slots__ = ()

    def _checked(self) -> Location:
        if self.continent not in CONTINENTS:
            raise ValueError(f"unknown continent code: {self.continent!r}")
        expected = continent_of(self.country)
        if expected != self.continent:
            raise ValueError(
                f"continent {self.continent} inconsistent with country "
                f"{self.country} (expected {expected})"
            )
        return self

    @classmethod
    def of(cls, country: str, city: str | None = None) -> "Location":
        """Build a Location, deriving the continent from the country."""
        cc = country.upper()
        return cls(country=cc, city=city, continent=continent_of(cc))


def region_class(location: Location) -> str:
    """Region bucket used for cross-border accounting: the EU continent,
    the US, Asia, everything else 'Other'."""
    if location.continent == "EU":
        return "EU"
    if location.country == "US":
        return "US"
    if location.continent == "AS":
        return "Asia"
    return "Other"
